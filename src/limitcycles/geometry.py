"""Piecewise arc/segment curves in the phase plane.

The upper half of a limit cycle can be matched by a short chain of circular
arcs and straight segments, each valid on a half-open interval ``(yLow,
yHigh]`` of the position coordinate.  This module provides:

* the curve types (:class:`Arc`, :class:`Segment`, :class:`CurvePiece`,
  :class:`PiecewiseCurve`) and strict evaluation (:func:`eval_piecewise`),
  where "strict" means a position outside every domain — or inside a domain
  where an arc's square root turns imaginary — raises with the offending
  piece number rather than guessing;
* audits: :func:`joint_gaps`/:func:`continuity_report` measure the mismatch
  where neighboring pieces meet, :func:`domain_audit` classifies each arc's
  domain against its real interval (the bundled reference tables contain
  genuine defects, which these reports surface rather than hide);
* scoring: :func:`curve_distance` measures Euclidean distance from curve
  samples to an exact integrated cycle, on the edges with an endpoint within
  ``d_v + L_max/2`` of a sample only (the all-pairs minimum, bit for bit);
* fitting: :func:`fit_cycle` greedily covers a computed cycle's upper half
  with the fewest arcs/segments keeping the residual below a tolerance.
  Pieces interpolate their window endpoints, so adjacent pieces meet exactly
  and a straight segment arises naturally as the infinite-radius limit
  (radius above 1e3 is emitted as a :class:`Segment`);
* round-trippable text files for curves, plus two bundled reference tables
  (``rayleigh_eps5``, ``vdp_eps5``) loaded with :func:`load_bundled`.

Piece numbers in reports and error messages are 1-based, matching how the
reference tables are usually cited.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from importlib import resources
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConvergenceError, DomainError
from .integrator import CycleRecord

__all__ = [
    "Arc",
    "Segment",
    "CurvePiece",
    "PiecewiseCurve",
    "JointReport",
    "PieceAudit",
    "DistanceReport",
    "eval_piecewise",
    "joint_gaps",
    "continuity_report",
    "domain_audit",
    "clipped",
    "curve_distance",
    "fit_cycle",
    "check_fit_tol",
    "write_curve",
    "read_curve",
    "load_bundled",
    "BUNDLED_CURVES",
    "MAX_PIECES",
]

UPPER = "upper"
LOWER = "lower"

LINE_RADIUS_LIMIT = 1e3  # fitted arcs flatter than this become segments
# fit_cycle's piece budget: at tol 0.1 van der Pol needs 20 pieces at eps
# 40-45 and 23 at eps 50, Rayleigh at most 7 up to eps 50
MAX_PIECES = 32
_SCORE_SAMPLES = 200  # interior samples per piece in curve_distance


@dataclass(frozen=True)
class Arc:
    """Circular-arc branch ``z = center_z ± sqrt(radius² - (y - center_y)²)``."""

    center: Tuple[float, float]
    radius: float
    branch: str

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"arc radius must be positive, got {self.radius!r}")
        if self.branch not in (UPPER, LOWER):
            raise DomainError(f"arc branch must be upper or lower, got {self.branch!r}")

    @property
    def real_interval(self) -> Tuple[float, float]:
        """Positions where the square root is real: [center_y - r, center_y + r]."""
        return self.center[0] - self.radius, self.center[0] + self.radius

    def value(self, y):
        """``z`` at ``y``: a float for a float, an array for an array."""
        offset2 = (np.asarray(y, dtype=float) - self.center[0]) ** 2
        radicand = self.radius**2 - offset2
        # keep the exact edges y = center_y +- radius usable: a deficit of a
        # few ulps is rounding, not a genuinely imaginary root
        if np.any(radicand < -16 * sys.float_info.epsilon * self.radius**2):
            raise DomainError(
                f"imaginary square root: (y - {self.center[0]})^2 = "
                f"{np.max(offset2):.6g} > {self.radius**2:.6g}"
            )
        root = np.sqrt(np.maximum(radicand, 0.0))
        z = self.center[1] + root if self.branch == UPPER else self.center[1] - root
        return z if np.ndim(y) else float(z)


@dataclass(frozen=True)
class Segment:
    """Straight line ``z = slope*y + intercept``."""

    slope: float
    intercept: float

    def value(self, y):
        """``z`` at ``y``: a float for a float, an array for an array."""
        z = self.slope * np.asarray(y, dtype=float) + self.intercept
        return z if np.ndim(y) else float(z)


Shape = Union[Arc, Segment]


@dataclass(frozen=True)
class CurvePiece:
    """One shape restricted to the half-open domain ``(y_low, y_high]``.

    An arc whose domain reaches outside its real interval is permitted here
    — the bundled reference data contains such pieces — and is reported by
    :func:`domain_audit`; evaluation inside the imaginary part raises.
    """

    shape: Shape
    y_low: float
    y_high: float

    def __post_init__(self):
        if not (self.y_low < self.y_high):
            raise DomainError(
                f"empty piece domain ({self.y_low!r}, {self.y_high!r}]"
            )

    def contains(self, y: float) -> bool:
        return self.y_low < y <= self.y_high

    def real_domain(self) -> Optional[Tuple[float, float]]:
        """Intersection of the domain with the shape's real interval, or None."""
        if isinstance(self.shape, Segment):
            return self.y_low, self.y_high
        lo, hi = self.shape.real_interval
        lo, hi = max(lo, self.y_low), min(hi, self.y_high)
        return (lo, hi) if lo < hi else None

    def value(self, y):
        return self.shape.value(y)


@dataclass(frozen=True)
class PiecewiseCurve:
    """Ordered, non-overlapping pieces; optionally odd-symmetric.

    ``symmetric=True`` declares that the other half of the underlying closed
    curve is the image under ``(y, z) -> (-y, -z)``.
    Pieces are normally contiguous; clipped variants may leave holes, which
    simply shrink where the curve can be evaluated.
    """

    pieces: Tuple[CurvePiece, ...]
    symmetric: bool = True
    name: str = ""

    def __post_init__(self):
        if not self.pieces:
            raise DomainError("a curve needs at least one piece")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if right.y_low < left.y_high - 1e-12:
                raise DomainError(
                    f"pieces overlap near y={right.y_low!r}; they must be "
                    "ordered and disjoint"
                )

    @property
    def y_min(self) -> float:
        return self.pieces[0].y_low

    @property
    def y_max(self) -> float:
        return self.pieces[-1].y_high

    def piece_index_at(self, y: float) -> int:
        """0-based index of the piece whose domain holds ``y``."""
        for i, piece in enumerate(self.pieces):
            if piece.contains(y):
                return i
        raise DomainError(
            f"y={y!r} outside every piece domain of ({self.y_min!r}, {self.y_max!r}]"
        )


def eval_piecewise(curve: PiecewiseCurve, y: float) -> float:
    """Evaluate the curve at ``y``; strict about domains and real branches."""
    index = curve.piece_index_at(y)
    try:
        return curve.pieces[index].value(y)
    except DomainError as exc:
        raise DomainError(f"piece {index + 1}: {exc}") from None


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointReport:
    """Mismatch record where two pieces meet (piece numbers are 1-based)."""

    joint_y: float
    left_piece: int
    right_piece: int
    left: Optional[float]
    right: Optional[float]
    gap: Optional[float]
    defect: str  # "", "left side non-real", "right side non-real", or both


def _side_value(piece: CurvePiece, y: float) -> Optional[float]:
    try:
        return piece.value(y)
    except DomainError:
        return None


def joint_gaps(curve: PiecewiseCurve) -> List[JointReport]:
    """Evaluate every interior joint from both sides (no filtering)."""
    reports = []
    for i, (left, right) in enumerate(zip(curve.pieces, curve.pieces[1:])):
        y = left.y_high
        lv = _side_value(left, y)
        rv = _side_value(right, y)
        notes = []
        if lv is None:
            notes.append("left side non-real")
        if rv is None:
            notes.append("right side non-real")
        gap = abs(lv - rv) if lv is not None and rv is not None else None
        reports.append(
            JointReport(
                joint_y=y,
                left_piece=i + 1,
                right_piece=i + 2,
                left=lv,
                right=rv,
                gap=gap,
                defect=", ".join(notes),
            )
        )
    return reports


def continuity_report(curve: PiecewiseCurve, tol: float) -> List[JointReport]:
    """Joints that need attention: gap above ``tol``, or a non-real side."""
    return [
        rep
        for rep in joint_gaps(curve)
        if rep.defect or (rep.gap is not None and rep.gap > tol)
    ]


@dataclass(frozen=True)
class PieceAudit:
    """Domain-versus-real-interval classification of one piece (1-based)."""

    index: int
    status: str  # "real", "partially-real", "non-real"
    domain: Tuple[float, float]
    real_part: Optional[Tuple[float, float]]
    detail: str


def domain_audit(curve: PiecewiseCurve) -> List[PieceAudit]:
    """Classify every piece; arcs may be only partially real (or not at all).

    This is the validation that surfaces defective reference data: a piece
    whose stated domain pokes outside its arc's real interval is reported,
    never silently repaired.
    """
    audits = []
    for i, piece in enumerate(curve.pieces):
        domain = (piece.y_low, piece.y_high)
        real = piece.real_domain()
        if real == domain:
            status = "real"
            detail = "segment" if isinstance(piece.shape, Segment) else "arc"
        elif real is None:
            status = "non-real"
            lo, hi = piece.shape.real_interval
            detail = f"arc real only on [{lo:.6g}, {hi:.6g}], disjoint from the domain"
        else:
            status = "partially-real"
            detail = f"imaginary outside [{real[0]:.6g}, {real[1]:.6g}]"
        audits.append(PieceAudit(i + 1, status, domain, real, detail))
    return audits


def clipped(curve: PiecewiseCurve) -> PiecewiseCurve:
    """Copy with every domain intersected with its real interval.

    Pieces that are nowhere real are dropped; the result may therefore have
    holes (it no longer claims contiguity) but is everywhere evaluable.
    """
    kept = []
    for piece in curve.pieces:
        real = piece.real_domain()
        if real is None:
            continue
        kept.append(CurvePiece(piece.shape, real[0], real[1]))
    if not kept:
        raise DomainError("clipping removed every piece")
    return PiecewiseCurve(
        tuple(kept), symmetric=curve.symmetric, name=f"{curve.name}-clipped"
    )


# ---------------------------------------------------------------------------
# distance scoring
# ---------------------------------------------------------------------------


class DistanceReport(NamedTuple):
    max_dist: float
    mean_dist: float


def _sample_curve(curve: PiecewiseCurve) -> np.ndarray:
    points = []
    for piece in clipped(curve).pieces:
        # interior samples: the half-open convention and sqrt endpoints make
        # the exact edges fragile, and they carry no extra information
        ys = np.linspace(piece.y_low, piece.y_high, _SCORE_SAMPLES + 2)[1:-1]
        points.append(np.column_stack([ys, piece.value(ys)]))
    pts = np.vstack(points)
    if curve.symmetric:
        pts = np.vstack([pts, -pts])
    return pts


def _points_to_polyline(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to a closed polyline, exact per segment."""
    from scipy.spatial import cKDTree
    ay, az = poly.T
    aby, abz = np.roll(ay, -1) - ay, np.roll(az, -1) - az
    ab2 = np.maximum(aby * aby + abz * abz, 1e-300)
    tree = cKDTree(poly)
    reach = (tree.query(points)[0] + 0.5 * math.sqrt(ab2.max())) * (1 + 1e-9)
    near = tree.query_ball_point(points, reach, return_sorted=False)
    vertex = np.concatenate(near).astype(np.intp)
    owner = np.tile(np.repeat(np.arange(len(points)), [len(v) for v in near]), 2)
    edge = np.concatenate([vertex - 1, vertex]) % len(poly)  # both edges at a vertex
    ay, az, aby, abz, ab2 = ay[edge], az[edge], aby[edge], abz[edge], ab2[edge]
    py, pz = points[owner, 0], points[owner, 1]
    t = np.clip(((py - ay) * aby + (pz - az) * abz) / ab2, 0.0, 1.0)
    dy, dz = py - (ay + t * aby), pz - (az + t * abz)
    out = np.full(len(points), np.inf)
    np.minimum.at(out, owner, dy * dy + dz * dz)
    return np.sqrt(out)


def curve_distance(curve: PiecewiseCurve, cycle: CycleRecord) -> DistanceReport:
    """Euclidean distance statistics from curve samples to an exact cycle.

    Samples 200 interior points of each piece's real domain, mirrors them
    when the curve is symmetric, and measures the distance to the polygon
    through the cycle's samples, exact per edge.  Those samples are evenly
    spaced in arclength, so every edge is short and the polygon stays close
    to the cycle through van der Pol's relaxation jumps too.  A point's
    nearest vertex, at ``d_v``, bounds its distance, and an edge lies within
    half its length of an endpoint, so a k-d tree measures only the edges
    with an endpoint within ``(d_v + L_max/2)(1 + 1e-9)``, ``L_max`` the
    longest edge: the result is the all-pairs minimum, bit for bit.
    """
    if not cycle.converged:
        raise DomainError("distance scoring needs a converged cycle")
    pts = _sample_curve(curve)
    dists = _points_to_polyline(pts, np.column_stack([cycle.y, cycle.z]))
    return DistanceReport(float(dists.max()), float(dists.mean()))


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def _upper_half(cycle: CycleRecord) -> Tuple[np.ndarray, np.ndarray]:
    """Samples from the minimum-y turning point to the maximum-y one.

    On this half the velocity is positive, so position increases strictly
    monotonically and ``z`` is a well-defined function of ``y``.
    """
    y, z = np.asarray(cycle.y), np.asarray(cycle.z)
    start = int(np.argmin(y))
    yu, zu = y[start:], z[start:]
    if len(yu) < 8:
        raise DomainError("turning-point decomposition failed: upper half too short")
    keep = np.concatenate([[True], np.diff(yu) > 1e-14])
    yu, zu = yu[keep], zu[keep]
    if not np.all(np.diff(yu) > 0):
        raise DomainError(
            "turning-point decomposition failed: upper half not monotone in y"
        )
    return yu, zu


_GOLDEN, _SQRT_EPS = 0.5 * (3.0 - math.sqrt(5.0)), math.sqrt(2.2e-16)


def _sign(x: float) -> float:  # scipy's np.sign(x) + (x == 0): 1 at 0, NaN at NaN
    return 1.0 if x >= 0 else -1.0 if x < 0 else x


def _fminbound(cost, a: float, b: float, xatol: float) -> float:
    """The minimiser of ``cost`` on ``[a, b]`` by Brent's bounded method
    (Brent 1973, ch. 5), step for step as scipy's ``minimize_scalar(...,
    method="bounded")`` takes it (500 evaluations at most), in floats."""
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = cost(xf)
    for _ in range(499):  # one evaluation per pass
        xm, tol1 = 0.5 * (a + b), _SQRT_EPS * abs(xf) + xatol / 3.0
        if not abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a):
            break
        parabola = False
        if abs(e) > tol1:  # a parabola through the three best points
            r, q = (xf - nfc) * (fx - ffulc), (xf - fulc) * (fx - fnfc)
            p, q = (xf - fulc) * q - (xf - nfc) * r, 2.0 * (q - r)
            p, q, r, e = (-p if q > 0.0 else p), abs(q), e, rat
            parabola = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
        if parabola:
            rat = (p + 0.0) / q
            if xf + rat - a < 2.0 * tol1 or b - (xf + rat) < 2.0 * tol1:
                rat = tol1 * _sign(xm - xf)
        else:  # a golden-section step into the larger part
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = cost(x)
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return xf


def _fit_window(y: np.ndarray, z: np.ndarray) -> Shape:
    """Best arc or segment through the window's endpoints.

    The center of any circle through both endpoints lies on their
    perpendicular bisector; the one-parameter family is searched for the
    least-squares geometric residual by :func:`_fminbound`, a float port of
    scipy's bounded Brent minimiser.  Radii beyond ``LINE_RADIUS_LIMIT``
    collapse to the chord segment.
    """
    y0, z0, y1, z1 = float(y[0]), float(z[0]), float(y[-1]), float(z[-1])
    cy, cz = y1 - y0, z1 - z0
    length = float(np.hypot(cy, cz))
    if length <= 0:
        raise DomainError("degenerate window: coincident endpoints")
    my, mz = 0.5 * (y0 + y1), 0.5 * (z0 + z1)
    ny, nz = -cz / length, cy / length

    def cost(s: float) -> float:
        r = np.hypot(y - (my + s * ny), z - (mz + s * nz)) - math.hypot(0.5 * length, s)
        return float(np.add.reduce(r * r) / len(r))  # ndarray.mean's pairwise sum

    if len(y) > 2:
        s = _fminbound(cost, -2.0 * LINE_RADIUS_LIMIT, 2.0 * LINE_RADIUS_LIMIT, 1e-10)
    else:
        s = 2.0 * LINE_RADIUS_LIMIT  # two points: straight chord
    radius = math.hypot(0.5 * length, s)
    if radius > LINE_RADIUS_LIMIT:
        slope = cz / cy
        return Segment(slope, z0 - slope * y0)
    branch = UPPER if np.mean(z) >= mz + s * nz else LOWER
    return Arc((my + s * ny, mz + s * nz), radius, branch)


def _window_residual(shape: Shape, y: np.ndarray, z: np.ndarray) -> float:
    """Max vertical deviation of the window from the shape, inf if non-real."""
    try:
        fit = shape.value(y)
    except DomainError:
        return math.inf
    return float(np.max(np.abs(fit - z)))


def check_fit_tol(tol: float) -> None:
    """Refuse a fit tolerance outside ``0 < tol < inf``; NaN fails too."""
    if not 0 < tol < math.inf:
        raise DomainError(f"fit tolerance must be positive and finite, got {tol!r}")


def fit_cycle(cycle: CycleRecord, tol: float = 0.1) -> PiecewiseCurve:
    """Cover the cycle's upper half with at most ``MAX_PIECES`` pieces within ``tol``.

    Greedy longest-prefix strategy: from the current start sample, grow the
    window as far as a single arc or segment through its endpoints stays
    within ``tol`` of every interior sample (vertical deviation), emit that
    piece, and continue from the window's end.  Because consecutive pieces
    share an interpolated endpoint, the result is continuous up to solver
    noise.  The cycle's samples are evenly spaced in arclength, so no stretch
    of the cycle falls between them and the fit's distance to the cycle is
    bounded by the tolerance.  A cycle that needs more than ``MAX_PIECES``
    pieces raises :class:`~limitcycles.errors.ConvergenceError`.
    """
    check_fit_tol(tol)
    yu, zu = _upper_half(cycle)
    n = len(yu)
    pieces: List[CurvePiece] = []
    start = 0
    while start < n - 1:
        if len(pieces) >= MAX_PIECES:
            raise ConvergenceError(
                f"fit needs more than {MAX_PIECES} pieces "
                f"(covered y <= {yu[start]:.6g} of {yu[-1]:.6g})"
            )
        # gallop the window end outward until a window fails, then bisect
        # between the largest end known to fit (a 2-point chord always does)
        # and the smallest known not to
        lo, bad = start + 1, n
        shape = _fit_window(yu[start : lo + 1], zu[start : lo + 1])
        while bad - lo > 1:
            end = min(2 * lo - start, n - 1) if bad == n else (lo + bad) // 2
            candidate = _fit_window(yu[start : end + 1], zu[start : end + 1])
            if _window_residual(candidate, yu[start : end + 1], zu[start : end + 1]) <= tol:
                lo, shape = end, candidate
            else:
                bad = end
        pieces.append(CurvePiece(shape, float(yu[start]), float(yu[lo])))
        start = lo
    return PiecewiseCurve(
        tuple(pieces), symmetric=True, name=f"{cycle.kind}-eps{cycle.epsilon:g}-fit"
    )


# ---------------------------------------------------------------------------
# curve files
# ---------------------------------------------------------------------------

_DOMAIN_RE = re.compile(r"^\(([^,]+),([^\]]+)\]$")

BUNDLED_CURVES = ("rayleigh_eps5", "vdp_eps5")
_PIECE_KEYS = {
    "segment": {"slope", "intercept", "domain"},
    "arc": {"center_y", "center_z", "radius", "radius2", "branch", "domain"},
}


def write_curve(curve: PiecewiseCurve, path) -> None:
    """Plain-text serialization, one piece per line, exactly round-trippable."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# piecewise phase-plane curve\n")
        fh.write(f"name: {curve.name}\n")
        fh.write(f"symmetric: {'true' if curve.symmetric else 'false'}\n")
        for piece in curve.pieces:
            domain = f"domain=({piece.y_low!r},{piece.y_high!r}]"
            if isinstance(piece.shape, Arc):
                fh.write(
                    f"arc center_y={piece.shape.center[0]!r} "
                    f"center_z={piece.shape.center[1]!r} "
                    f"radius={piece.shape.radius!r} "
                    f"branch={piece.shape.branch} {domain}\n"
                )
            else:
                fh.write(
                    f"segment slope={piece.shape.slope!r} "
                    f"intercept={piece.shape.intercept!r} {domain}\n"
                )


def _parse_piece(line: str) -> CurvePiece:
    kind, *tokens = line.split()
    if kind not in _PIECE_KEYS:
        raise DomainError(f"unknown piece kind {kind!r}")
    fields = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise DomainError(f"token {token!r} is not key=value")
        if key not in _PIECE_KEYS[kind]:
            raise DomainError(f"unknown {kind} field {key!r}")
        if key in fields:
            raise DomainError(f"repeated field {key!r}")
        fields[key] = value
    match = _DOMAIN_RE.match(fields.get("domain", ""))
    if not match:
        raise DomainError("malformed domain")
    y_low, y_high = float(match.group(1)), float(match.group(2))
    if kind == "segment":
        shape: Shape = Segment(float(fields["slope"]), float(fields["intercept"]))
    else:
        if "radius" in fields and "radius2" in fields:
            raise DomainError("an arc takes radius or radius2, not both")
        if "radius" in fields:
            radius = float(fields["radius"])
        else:
            radius = math.sqrt(float(fields["radius2"]))
        shape = Arc(
            (float(fields["center_y"]), float(fields["center_z"])),
            radius,
            fields["branch"],
        )
    return CurvePiece(shape, y_low, y_high)


def _parse_curve(text: str, where: str) -> PiecewiseCurve:
    name = ""
    symmetric = True
    pieces = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("name:"):
            name = line.split(":", 1)[1].strip()
        elif line.startswith("symmetric:"):
            value = line.split(":", 1)[1].strip().lower()
            if value not in ("true", "false"):
                raise DomainError(f"{where}: symmetric must be true or false in {line!r}")
            symmetric = value == "true"
        else:
            try:
                pieces.append(_parse_piece(line))
            except KeyError as exc:
                raise DomainError(f"{where}: missing field {exc} in {line!r}") from None
            except ValueError as exc:  # a DomainError too
                raise DomainError(f"{where}: {exc} in {line!r}") from None
    if not pieces:
        raise DomainError(f"{where}: no pieces found")
    return PiecewiseCurve(tuple(pieces), symmetric=symmetric, name=name)


def read_curve(path) -> PiecewiseCurve:
    """Read :func:`write_curve`'s format; a missing, unknown or repeated field,
    an arc with both radii, a token without ``=`` or a ``symmetric`` other
    than true/false raises :class:`~limitcycles.errors.DomainError` naming the
    file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_curve(fh.read(), str(path))


def load_bundled(name: str) -> PiecewiseCurve:
    """One of the shipped reference tables: ``rayleigh_eps5`` or ``vdp_eps5``.

    Shipped verbatim, defects included; see :func:`domain_audit` and
    :func:`clipped`.
    """
    if name not in BUNDLED_CURVES:
        raise DomainError(f"unknown bundled curve {name!r}; choose from {BUNDLED_CURVES}")
    text = (
        resources.files("limitcycles").joinpath(f"data/{name}.curve").read_text()
    )
    return _parse_curve(text, f"bundled:{name}")
