"""Tests for piecewise arc/segment curves, audits, and cycle fitting."""

import functools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from limitcycles import geometry
from limitcycles.errors import ConvergenceError, DomainError
from limitcycles.geometry import (
    MAX_PIECES,
    Arc,
    CurvePiece,
    PiecewiseCurve,
    Segment,
    clipped,
    continuity_report,
    curve_distance,
    domain_audit,
    eval_piecewise,
    fit_cycle,
    joint_gaps,
    load_bundled,
    read_curve,
    write_curve,
)
from limitcycles.geometry import (
    LINE_RADIUS_LIMIT,
    LOWER,
    UPPER,
    DistanceReport,
    _fminbound,
    _points_to_polyline,
    _sample_curve,
    _window_residual,
)
from limitcycles.integrator import IntegratorConfig, limit_cycle
from limitcycles.oscillators import OscillatorSpec


@pytest.fixture(scope="module")
def rayleigh_table():
    return load_bundled("rayleigh_eps5")


@pytest.fixture(scope="module")
def vdp_table():
    return load_bundled("vdp_eps5")


@pytest.fixture(scope="module")
def eps5_cycles():
    config = IntegratorConfig(n_samples=2000)
    return {
        "rayleigh": limit_cycle(OscillatorSpec.rayleigh(5.0), config),
        "vanderpol": limit_cycle(OscillatorSpec.van_der_pol(5.0), config),
    }


@functools.lru_cache(maxsize=None)
def _cycle(form, eps):
    """One 2000-sample cycle per (form, eps), shared by the tests below."""
    if form == "lienard":  # van der Pol written as a generic Lienard system
        spec = OscillatorSpec.lienard(eps, lambda y, z: z * (y * y - 1.0), lambda y: y)
    elif form == "vanderpol":
        spec = OscillatorSpec.van_der_pol(eps)
    else:
        spec = OscillatorSpec.rayleigh(eps)
    return limit_cycle(spec, IntegratorConfig(n_samples=2000))


def _all_pairs_distance(points, poly):
    """Reference scorer: the distance to every edge of the closed polyline."""
    ay, az = poly.T
    aby, abz = np.roll(ay, -1) - ay, np.roll(az, -1) - az
    ab2 = np.maximum(aby * aby + abz * abz, 1e-300)
    out = np.empty(len(points))
    for start in range(0, len(points), 256):
        py, pz = points[start : start + 256, :1], points[start : start + 256, 1:]
        t = np.clip(((py - ay) * aby + (pz - az) * abz) / ab2, 0.0, 1.0)
        dy, dz = py - (ay + t * aby), pz - (az + t * abz)
        out[start : start + 256] = np.sqrt((dy * dy + dz * dz).min(axis=1))
    return out


def _assert_scores_like_all_pairs(curve, cycle):
    points, poly = _sample_curve(curve), np.column_stack([cycle.y, cycle.z])
    reference = _all_pairs_distance(points, poly)
    assert np.array_equal(_points_to_polyline(points, poly), reference)
    assert curve_distance(curve, cycle) == DistanceReport(
        float(reference.max()), float(reference.mean())
    )


# polyline coordinates: a half-integer grid repeats vertices (zero-length
# edges) and lines them up, arbitrary floats fill in between
_vertex_coordinate = st.one_of(st.integers(-8, 8).map(lambda k: k / 2), st.floats(-4, 4))


# ---------------------------------------------------------------------------
# types and evaluation
# ---------------------------------------------------------------------------


class TestShapes:
    def test_arc_value_upper_and_lower(self):
        arc = Arc((1.0, 2.0), 5.0, "upper")
        assert arc.value(4.0) == pytest.approx(6.0)  # 2 + sqrt(25 - 9)
        assert Arc((1.0, 2.0), 5.0, "lower").value(4.0) == pytest.approx(-2.0)

    def test_arc_real_interval(self):
        assert Arc((3.0, -0.02), 1.4, "upper").real_interval == (1.6, 4.4)

    def test_arc_validation(self):
        with pytest.raises(DomainError):
            Arc((0.0, 0.0), -1.0, "upper")
        with pytest.raises(DomainError):
            Arc((0.0, 0.0), 1.0, "sideways")

    def test_segment_value(self):
        assert Segment(10.0, 43.9).value(-4.3) == pytest.approx(0.9)

    def test_scalar_value_is_a_python_float(self):
        arc, segment = Arc((1.0, 2.0), 5.0, "upper"), Segment(-2.5, 0.75)
        curve = PiecewiseCurve(
            (CurvePiece(segment, -1.0, 1.0), CurvePiece(arc, 1.0, 6.0)), symmetric=False
        )
        for y in (2.0, np.float64(2.0), 2, np.int64(2)):
            assert type(arc.value(y)) is float
            assert type(segment.value(y)) is float
            assert type(eval_piecewise(curve, y)) is float
        assert type(eval_piecewise(curve, np.float64(0.5))) is float  # the segment

    def test_array_value_is_the_scalar_value_elementwise(self):
        ys = np.linspace(-0.2, 0.4, 13)  # both exact edges of the arcs
        for shape in (
            Arc((0.1, 0.0), 0.3, "upper"),
            Arc((0.1, 0.5), 0.3, "lower"),
            Segment(-2.5, 0.75),
        ):
            values = shape.value(ys)
            assert isinstance(values, np.ndarray)
            expected = [shape.value(float(y)) for y in ys]
            assert all(isinstance(v, float) for v in expected)
            np.testing.assert_array_equal(values, expected)

    def test_window_residual_accepts_what_arc_value_accepts(self):
        # (0.4 - 0.1)^2 exceeds 0.3^2 by a few ulps: rounding at the exact
        # edge of the arc, which both evaluations must treat alike
        arc = Arc((0.1, 0.0), 0.3, "upper")
        y = np.array([-0.1, 0.2, 0.4])
        assert arc.value(0.4) == 0.0
        z = np.array([arc.value(v) for v in y])
        assert _window_residual(arc, y, z) == 0.0

    def test_piece_domain_validation(self):
        with pytest.raises(DomainError):
            CurvePiece(Segment(1.0, 0.0), 2.0, 2.0)

    def test_curve_rejects_overlap(self):
        a = CurvePiece(Segment(1.0, 0.0), 0.0, 2.0)
        b = CurvePiece(Segment(1.0, 0.0), 1.0, 3.0)
        with pytest.raises(DomainError):
            PiecewiseCurve((a, b))

    def test_curve_allows_holes(self):
        # clipped variants are not contiguous; only overlap is forbidden
        a = CurvePiece(Segment(1.0, 0.0), 0.0, 1.0)
        b = CurvePiece(Segment(1.0, 0.0), 2.0, 3.0)
        curve = PiecewiseCurve((a, b))
        with pytest.raises(DomainError, match="outside every piece"):
            eval_piecewise(curve, 1.5)

    @given(
        y0=st.floats(-5, 5),
        z0=st.floats(-5, 5),
        r=st.floats(0.1, 10),
        frac=st.floats(-0.999, 0.999),
        branch=st.sampled_from(["upper", "lower"]),
    )
    def test_arc_points_satisfy_circle_equation(self, y0, z0, r, frac, branch):
        arc = Arc((y0, z0), r, branch)
        y = y0 + frac * r
        z = arc.value(y)
        assert (y - y0) ** 2 + (z - z0) ** 2 == pytest.approx(r**2, abs=1e-12 * r**2 + 1e-12)


class TestEvaluation:
    def test_reference_values(self, rayleigh_table, vdp_table):
        # hand-computed from the bundled parameters
        assert eval_piecewise(rayleigh_table, -3.6) == pytest.approx(2.04949130612758)
        assert eval_piecewise(rayleigh_table, 0.0) == pytest.approx(1.689)
        assert eval_piecewise(vdp_table, 0.6) == pytest.approx(6.95)
        assert eval_piecewise(vdp_table, 2.0) == pytest.approx(0.8)

    def test_half_open_membership(self, rayleigh_table):
        # joints belong to the piece on their left
        assert rayleigh_table.piece_index_at(-4.393) == 0
        assert rayleigh_table.piece_index_at(-4.392) == 1

    def test_outside_domain_raises_with_bounds(self, rayleigh_table):
        with pytest.raises(DomainError, match="outside every piece"):
            eval_piecewise(rayleigh_table, 5.0)
        with pytest.raises(DomainError, match="outside every piece"):
            eval_piecewise(rayleigh_table, -4.96)  # left edge is open

    def test_non_real_eval_names_the_piece(self, vdp_table):
        with pytest.raises(DomainError, match="piece 8"):
            eval_piecewise(vdp_table, 2.04)
        with pytest.raises(DomainError, match="piece 1"):
            eval_piecewise(vdp_table, -2.04)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


class TestJoints:
    def test_rayleigh_gap_values(self, rayleigh_table):
        gaps = {round(r.joint_y, 4): r.gap for r in joint_gaps(rayleigh_table)}
        assert gaps[-4.393] == pytest.approx(0.0898248905, abs=1e-9)
        assert gaps[-4.23] == pytest.approx(0.0233809621, abs=1e-9)
        assert gaps[-3.6] == pytest.approx(0.0004913061, abs=1e-9)
        assert gaps[3.12] == pytest.approx(0.0021523381, abs=1e-9)

    def test_vdp_gap_values(self, vdp_table):
        reports = {round(r.joint_y, 4): r for r in joint_gaps(vdp_table)}
        assert reports[-1.7].gap == pytest.approx(0.0011186310, abs=1e-9)
        assert reports[-0.633].gap == pytest.approx(0.0138040161, abs=1e-9)
        assert reports[0.6].gap == pytest.approx(0.0027864045, abs=1e-9)
        assert reports[0.9].gap == pytest.approx(0.0010813767, abs=1e-9)
        assert reports[1.28].gap == pytest.approx(0.0021705478, abs=1e-9)
        assert reports[1.8].gap == pytest.approx(0.02, abs=1e-9)
        # at the last joint the final arc cannot be evaluated at all
        last = reports[2.033]
        assert last.gap is None
        assert last.defect == "right side non-real"
        assert last.left == pytest.approx(0.371)

    def test_continuity_report_filters(self, rayleigh_table, vdp_table):
        flagged = continuity_report(rayleigh_table, 0.02)
        assert [round(r.joint_y, 4) for r in flagged] == [-4.393, -4.23]
        # non-real sides are always reported, whatever the tolerance
        loose = continuity_report(vdp_table, 10.0)
        assert len(loose) == 1 and loose[0].defect == "right side non-real"

    def test_all_numeric_gaps_below_point_one(self, rayleigh_table, vdp_table):
        for table in (rayleigh_table, vdp_table):
            for rep in joint_gaps(table):
                if rep.gap is not None:
                    assert rep.gap < 0.1


class TestDomainAudit:
    def test_rayleigh_defects(self, rayleigh_table):
        audits = {a.index: a for a in domain_audit(rayleigh_table)}
        assert [a.status for a in audits.values()] == [
            "partially-real", "real", "real", "real", "partially-real",
        ]
        # the first arc is real only on a 0.007-wide sliver
        lo, hi = audits[1].real_part
        assert lo == pytest.approx(-4.4)
        assert hi == pytest.approx(-4.393)
        # its mirror image has the same defect on the right
        assert audits[5].real_part[1] == pytest.approx(4.4)

    def test_vdp_defects(self, vdp_table):
        audits = {a.index: a for a in domain_audit(vdp_table)}
        statuses = [audits[i].status for i in range(1, 9)]
        assert statuses == [
            "partially-real", "real", "real", "real",
            "real", "real", "real", "non-real",
        ]
        assert audits[1].real_part[0] == pytest.approx(-2.0312958790)
        # piece 8's arc tops out at 1.438 + sqrt(0.352) < 2.033
        assert audits[8].real_part is None
        assert "disjoint" in audits[8].detail

    def test_clipped_is_everywhere_evaluable(self, rayleigh_table, vdp_table):
        for table in (rayleigh_table, vdp_table):
            cut = clipped(table)
            for piece in cut.pieces:
                for frac in (1e-6, 0.5, 1.0):
                    y = piece.y_low + frac * (piece.y_high - piece.y_low)
                    piece.value(y)  # must not raise
            assert all(a.status == "real" for a in domain_audit(cut))
        assert len(clipped(vdp_table).pieces) == 7  # piece 8 dropped


# ---------------------------------------------------------------------------
# distance and fitting
# ---------------------------------------------------------------------------


class TestDistance:
    def test_tables_track_their_cycles(self, rayleigh_table, vdp_table, eps5_cycles):
        ray = curve_distance(rayleigh_table, eps5_cycles["rayleigh"])
        vdp = curve_distance(vdp_table, eps5_cycles["vanderpol"])
        # published tables are sketches: decent but visibly imperfect
        assert ray.max_dist < 0.15
        assert vdp.max_dist < 0.2
        assert ray.mean_dist < 0.05
        assert vdp.mean_dist < 0.05
        assert ray.mean_dist <= ray.max_dist

    def test_symmetric_flag_doubles_coverage(self, eps5_cycles):
        cycle = eps5_cycles["rayleigh"]
        table = load_bundled("rayleigh_eps5")
        asymmetric = PiecewiseCurve(table.pieces, symmetric=False, name="upper-only")
        sym = curve_distance(table, cycle)
        asym = curve_distance(asymmetric, cycle)
        # the symmetric score adds the mirrored samples, so it can only grow;
        # the cycle itself is odd-symmetric, so it barely does
        assert sym.max_dist >= asym.max_dist
        assert sym.max_dist == pytest.approx(asym.max_dist, abs=1e-3)

    def test_tables_score_like_all_pairs(self, rayleigh_table, vdp_table, eps5_cycles):
        _assert_scores_like_all_pairs(rayleigh_table, eps5_cycles["rayleigh"])
        _assert_scores_like_all_pairs(vdp_table, eps5_cycles["vanderpol"])

    @pytest.mark.parametrize(
        "form, eps",
        [(form, eps) for form in ("vanderpol", "lienard") for eps in (15.0, 30.0, 50.0)]
        + [("rayleigh", 0.5), ("rayleigh", 50.0)],
    )
    def test_fits_score_like_all_pairs(self, form, eps):
        cycle = _cycle(form, eps)
        _assert_scores_like_all_pairs(fit_cycle(cycle, tol=0.1), cycle)

    @given(
        poly=st.lists(
            st.tuples(_vertex_coordinate, _vertex_coordinate), min_size=1, max_size=40
        ),
        points=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=30
        ),
    )
    # one long edge passes next to the point while both of its endpoints,
    # and every other vertex, lie far from it: the L_max/2 term finds it
    @example(poly=[(-10.0, 0.0), (10.0, 0.0), (0.0, 5.0)], points=[(0.0, 0.1)])
    def test_pruned_search_is_all_pairs_bit_for_bit(self, poly, points):
        # repeated vertices give zero-length edges, random orders give
        # self-crossings, and the points reach far outside the polyline
        poly, points = np.array(poly), np.array(points)
        assert np.array_equal(
            _points_to_polyline(points, poly), _all_pairs_distance(points, poly)
        )

    def test_unconverged_cycle_rejected(self, eps5_cycles):
        from dataclasses import replace

        broken = replace(eps5_cycles["rayleigh"], converged=False)
        with pytest.raises(DomainError, match="converged"):
            curve_distance(load_bundled("rayleigh_eps5"), broken)


class TestFitCycle:
    @pytest.mark.parametrize("kind", ["rayleigh", "vanderpol"])
    def test_fit_meets_contract(self, kind, eps5_cycles):
        cycle = eps5_cycles[kind]
        tol = 0.1
        fit = fit_cycle(cycle, tol=tol)
        assert len(fit.pieces) <= 20
        assert fit.symmetric
        # pieces are contiguous by construction
        for left, right in zip(fit.pieces, fit.pieces[1:]):
            assert right.y_low == left.y_high
        # distance and continuity post-conditions
        report = curve_distance(fit, cycle)
        assert report.max_dist <= 2 * tol
        for joint in joint_gaps(fit):
            assert joint.gap is not None
            assert joint.gap <= 2 * tol
        # the fit spans the cycle's position range
        assert fit.y_min == pytest.approx(-cycle.amplitude, abs=0.01)
        assert fit.y_max == pytest.approx(cycle.amplitude, abs=0.01)

    def test_tight_tolerance_needs_more_pieces(self, eps5_cycles):
        cycle = eps5_cycles["rayleigh"]
        loose = fit_cycle(cycle, tol=0.2)
        tight = fit_cycle(cycle, tol=0.02)
        assert len(tight.pieces) > len(loose.pieces)
        assert curve_distance(tight, cycle).max_dist <= 0.04

    def test_piece_budget_enforced(self, eps5_cycles):
        with pytest.raises(ConvergenceError, match=f"more than {MAX_PIECES} pieces"):
            fit_cycle(eps5_cycles["vanderpol"], tol=1e-4)

    def test_bad_arguments(self, eps5_cycles):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                fit_cycle(eps5_cycles["rayleigh"], tol=tol)

    @pytest.mark.parametrize("eps", [15.0, 20.0, 30.0, 50.0])
    @pytest.mark.parametrize("form", ["vanderpol", "lienard"])
    def test_fit_within_tol_through_relaxation_jumps(self, form, eps):
        # the samples resolve the fast jumps, so the fit's tolerance bounds
        # its distance to the cycle at large eps too
        cycle = _cycle(form, eps)
        fit = fit_cycle(cycle, tol=0.1)
        assert curve_distance(fit, cycle).max_dist <= 0.1

    def test_harmonic_circle_fits_one_arc(self):
        # epsilon -> 0 limit: the cycle is a circle, one arc suffices
        spec = OscillatorSpec.lienard(1.0, lambda y, z: 0.0, lambda y: y)
        cycle = limit_cycle(spec, IntegratorConfig(max_cycles=5, cycle_tol=1.0))
        fit = fit_cycle(cycle, tol=0.05)
        assert len(fit.pieces) == 1
        arc = fit.pieces[0].shape
        assert isinstance(arc, Arc)
        assert arc.radius == pytest.approx(2.0, abs=1e-3)
        assert arc.center[0] == pytest.approx(0.0, abs=1e-3)


# -- the float ports against scipy, bit for bit ------------------------------


def _scipy_fit_window(y, z):
    """Reference fit: the window fit as it was written on scipy's
    ``minimize_scalar``, numpy arrays throughout."""
    from scipy.optimize import minimize_scalar
    p0 = np.array([y[0], z[0]])
    p1 = np.array([y[-1], z[-1]])
    chord = p1 - p0
    length = float(np.hypot(*chord))
    if length <= 0:
        raise DomainError("degenerate window: coincident endpoints")
    mid = 0.5 * (p0 + p1)
    normal = np.array([-chord[1], chord[0]]) / length
    pts = np.column_stack([y, z])

    def cost(s):
        center = mid + s * normal
        radius = math.hypot(0.5 * length, s)
        r = np.hypot(*(pts - center).T) - radius
        return float((r * r).mean())

    if len(y) > 2:
        best = minimize_scalar(
            cost, bounds=(-2.0 * LINE_RADIUS_LIMIT, 2.0 * LINE_RADIUS_LIMIT),
            method="bounded",
            options={"xatol": 1e-10},
        )
        s = float(best.x)
    else:
        s = 2.0 * LINE_RADIUS_LIMIT
    radius = math.hypot(0.5 * length, s)
    if radius > LINE_RADIUS_LIMIT:
        slope = chord[1] / chord[0]
        return Segment(float(slope), float(p0[1] - slope * p0[0]))
    center = mid + s * normal
    branch = UPPER if np.mean(z) >= center[1] else LOWER
    return Arc((float(center[0]), float(center[1])), float(radius), branch)


def _cost_family(kind, rng):
    """One seeded cost and its bounds: smooth, non-smooth, flat, or with its
    minimum at either bound."""
    c, w = rng.uniform(-10.0, 10.0), rng.uniform(0.1, 5.0)
    lo = rng.uniform(-20.0, 0.0)
    hi = lo + rng.uniform(0.01, 30.0)
    cost = {
        "smooth": lambda x: w * (x - c) ** 2 + math.cos(x),
        "wavy": lambda x: math.cos(w * x) + 0.01 * x,
        "kink": lambda x: abs(x - c) + 0.1 * math.sin(w * x),
        "flat": lambda x: 1.0,
        "min-at-lo": lambda x: w * x,
        "min-at-hi": lambda x: -w * x,
    }[kind]
    return cost, lo, hi


class TestPortsMatchScipy:
    @pytest.mark.parametrize(
        "kind", ["smooth", "wavy", "kink", "flat", "min-at-lo", "min-at-hi"]
    )
    def test_fminbound_is_scipys_bounded_brent(self, kind):
        from scipy.optimize import minimize_scalar

        rng = random.Random(kind)
        for _ in range(100):
            cost, lo, hi = _cost_family(kind, rng)
            xatol = 10.0 ** rng.uniform(-12.0, -3.0)
            ref = minimize_scalar(
                cost, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
            )
            assert repr(_fminbound(cost, lo, hi, xatol)) == repr(float(ref.x))

    def test_fminbound_stops_where_scipy_does(self):
        from scipy.optimize import minimize_scalar

        # no tolerance around a minimum at 0 exhausts the 500 evaluations; a
        # NaN cost, or a NaN past 0.5, stops early the way scipy's does
        for cost, lo, hi, xatol in [
            (abs, -3.0, 1.0, 0.0),
            (lambda x: math.nan, -1.0, 1.0, 1e-5),
            (lambda x: math.nan if x > 0.5 else x * x, -1.0, 1.0, 1e-8),
        ]:
            ref = minimize_scalar(
                cost, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
            )
            assert repr(_fminbound(cost, lo, hi, xatol)) == repr(float(ref.x))

    @pytest.mark.parametrize("eps", [0.5, 2.0, 5.0, 20.0, 50.0])
    @pytest.mark.parametrize("form", ["rayleigh", "vanderpol"])
    def test_fit_is_the_scipy_fit_bit_for_bit(self, form, eps, monkeypatch):
        cycle = _cycle(form, eps)
        ours = fit_cycle(cycle, tol=0.1)
        monkeypatch.setattr(geometry, "_fit_window", _scipy_fit_window)
        ref = fit_cycle(cycle, tol=0.1)
        assert len(ours.pieces) == len(ref.pieces)
        for mine, theirs in zip(ours.pieces, ref.pieces):
            assert repr(mine) == repr(theirs)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


class TestCurveFiles:
    def test_round_trip_exact(self, tmp_path, vdp_table):
        path = tmp_path / "table.curve"
        write_curve(vdp_table, path)
        back = read_curve(path)
        assert back.name == vdp_table.name
        assert back.symmetric == vdp_table.symmetric
        assert len(back.pieces) == len(vdp_table.pieces)
        for ours, theirs in zip(back.pieces, vdp_table.pieces):
            assert ours == theirs  # dataclass equality, exact floats

    def test_radius_and_radius2_spellings(self, tmp_path):
        text = (
            "name: spellings\n"
            "symmetric: false\n"
            "arc center_y=0.0 center_z=0.0 radius2=4.0 branch=upper domain=(-1.0,0.0]\n"
            "arc center_y=0.0 center_z=0.0 radius=2.0 branch=upper domain=(0.0,1.0]\n"
        )
        path = tmp_path / "s.curve"
        path.write_text(text)
        curve = read_curve(path)
        assert curve.pieces[0].shape.radius == 2.0
        assert curve.pieces[1].shape.radius == 2.0
        assert not curve.symmetric

    def test_malformed_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.curve"
        path.write_text("blob radius=1 domain=(0,1]\n")
        with pytest.raises(DomainError, match="unknown piece kind"):
            read_curve(path)
        path.write_text("segment slope=1 intercept=0 domain=[0,1]\n")
        with pytest.raises(DomainError, match="malformed domain"):
            read_curve(path)
        path.write_text("# nothing here\n")
        with pytest.raises(DomainError, match="no pieces"):
            read_curve(path)

    def test_missing_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.curve"
        line = "arc center_y=0.0 radius=2.0 branch=upper domain=(-1.0,0.0]"
        path.write_text(line + "\n")
        with pytest.raises(DomainError, match="missing field 'center_z'") as info:
            read_curve(path)
        assert str(path) in str(info.value) and line in str(info.value)

    def test_non_numeric_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.curve"
        line = "segment slope=steep intercept=0.0 domain=(-1.0,0.0]"
        path.write_text(line + "\n")
        with pytest.raises(DomainError, match="steep") as info:
            read_curve(path)
        assert str(path) in str(info.value) and line in str(info.value)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("symmetric: ture", "symmetric must be true or false"),
            (
                "segment slope=1.0 intercept=0.0 colour=red domain=(-1.0,0.0]",
                "unknown segment field 'colour'",
            ),
            (
                "segment slope=1.0 junk intercept=0.0 domain=(-1.0,0.0]",
                "token 'junk' is not key=value",
            ),
            (
                "segment slope=1.0 slope=2.0 intercept=0.0 domain=(-1.0,0.0]",
                "repeated field 'slope'",
            ),
            (
                "arc center_y=0.0 center_z=0.0 radius=2.0 radius2=9.0 branch=upper "
                "domain=(-1.0,0.0]",
                "an arc takes radius or radius2, not both",
            ),
        ],
        ids=[
            "symmetric-typo", "unknown-field", "bare-token", "repeated-field",
            "both-radii",
        ],
    )
    def test_strict_grammar_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.curve"
        path.write_text(
            "name: strict\n" + line + "\n"
            "segment slope=1.0 intercept=0.0 domain=(0.0,1.0]\n"
        )
        with pytest.raises(DomainError, match=re.escape(message)) as info:
            read_curve(path)
        assert str(path) in str(info.value) and line in str(info.value)

    def test_unknown_bundle_name(self):
        with pytest.raises(DomainError, match="unknown bundled curve"):
            load_bundled("lorenz_eps5")

    def test_bundled_tables_shape(self, rayleigh_table, vdp_table):
        assert len(rayleigh_table.pieces) == 5
        assert len(vdp_table.pieces) == 8
        kinds = [type(p.shape).__name__ for p in rayleigh_table.pieces]
        assert kinds == ["Arc", "Segment", "Arc", "Segment", "Arc"]
        kinds = [type(p.shape).__name__ for p in vdp_table.pieces]
        assert kinds == [
            "Arc", "Arc", "Segment", "Arc", "Arc", "Arc", "Segment", "Arc",
        ]
        assert rayleigh_table.y_min == -4.96 and rayleigh_table.y_max == 4.96
        assert vdp_table.y_min == -2.05 and vdp_table.y_max == 2.05
