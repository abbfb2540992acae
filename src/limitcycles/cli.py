"""Command-line surface: amplitudes, sweeps, cycles with fits, and reports.

Four subcommands:

* ``amplitude`` — one number by one method (exact integration, tuned
  second-order expansion, plain flow balance, calibrated closed form, or the
  high-accuracy van der Pol fit), printed and recorded as JSON;
* ``sweep`` — a comparison table over a grid of nonlinearity values,
  written as CSV plus an SVG overlay plot;
* ``cycle`` — one integrated limit cycle as CSV plus a phase-plane SVG,
  optionally overlaid with a fresh arc/segment fit (``--fit``) or with the
  bundled reference tables and their audit (``--appendix-c``);
* ``report`` — the full reproduction bundle: anchors, both sweeps, both
  phase portraits, and a discrepancy-notes file collecting every place the
  published numbers disagree with recomputation.

Exit codes: 0 success, 1 domain error, 2 convergence failure.  The output
directory is the ``--output-dir`` flag when given, else the config's
``output_dir`` (``sweep`` and ``report``), else the ``LIMITCYCLES_OUTPUT_DIR``
environment variable, else the working directory.
All CSV numbers use 12 significant digits so artifacts diff cleanly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import geometry
from .claims import ANCHORS, HAM_BOUND, SEAM_BOUND, VDP_FIT_BOUND, VDP_FIT_GRID, VDP_PEAK
from .errors import ConvergenceError, DomainError
from .ham import amplitude_ham, breakpoint_jumps, control_h
from .integrator import IntegratorConfig, _converge, amplitude_sweep, limit_cycle
from .irgm import amplitude_irgm, consistency_report, get_preset, vdp_fit
from .oscillators import RAYLEIGH, VAN_DER_POL, OscillatorSpec
from .rgflow import a_rg
from .svgplot import Series, save_plot

__all__ = ["RunConfig", "ComparisonRow", "build_comparison", "main"]

OUTPUT_DIR_ENV = "LIMITCYCLES_OUTPUT_DIR"

_SYSTEM_ALIASES = {
    "rayleigh": RAYLEIGH,
    "vdp": VAN_DER_POL,
    "vanderpol": VAN_DER_POL,
    "van-der-pol": VAN_DER_POL,
}


class _Method(NamedTuple):
    system: Optional[str]  # the one system it covers; None covers both
    column: str  # the ComparisonRow field it fills
    label: str  # its legend label


# every method, in series order; _amplitude_record calls the closed forms by
# their names in this module, so patching cli.amplitude_ham etc. sees each call
_METHODS = {
    "exact": _Method(None, "a_exact", "exact"),
    "ham": _Method(RAYLEIGH, "a_ham", "tuned 2nd order"),
    "rg": _Method(RAYLEIGH, "a_rg", "flow balance"),
    "irgm": _Method(None, "a_irgm", "calibrated closed form"),
    "fit": _Method(VAN_DER_POL, "a_irgm", "two-branch fit"),
}

_DEFAULT_PRESET = {RAYLEIGH: "rayleigh", VAN_DER_POL: "vdp-consistent"}


def _canonical_system(name: str) -> str:
    try:
        return _SYSTEM_ALIASES[name.lower()]
    except KeyError:
        raise DomainError(
            f"unknown system {name!r}; choose from {sorted(_SYSTEM_ALIASES)}"
        ) from None


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Complete, serializable description of a sweep/report run.

    Every field has a default, so the tool runs with zero configuration;
    a JSON file with the same explicit keys reproduces a run exactly.
    """

    system: str = RAYLEIGH
    eps_grid: Tuple[float, ...] = (
        0.5, 1.0, 2.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0,
    )
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    irgm_preset: Optional[str] = None  # None: the system's own preset
    output_dir: Optional[str] = None  # None: the environment variable, else "."

    def __post_init__(self):
        object.__setattr__(self, "system", _canonical_system(self.system))
        object.__setattr__(self, "eps_grid", tuple(float(e) for e in self.eps_grid))
        if not self.eps_grid:
            raise DomainError("eps_grid must not be empty")
        if not all(0 < e < math.inf for e in self.eps_grid):
            raise DomainError("eps_grid values must be positive and finite")
        if not all(a < b for a, b in zip(self.eps_grid, self.eps_grid[1:])):
            raise DomainError("eps_grid must be strictly increasing")
        if self.irgm_preset is not None:
            get_preset(self.irgm_preset)  # an unknown name raises

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Inverse of :meth:`to_json`; a missing key keeps its default."""
        return _from_plain(cls(), json.loads(text))


def _from_plain(default, value, name="a run config"):
    """Rebuild JSON ``value`` in the shape of ``default``: objects update the
    default dataclass field by field, lists become tuples."""
    if is_dataclass(default):
        if not isinstance(value, dict):
            raise DomainError(f"{name} must be a JSON object, got {value!r}")
        return replace(
            default,
            **{k: _from_plain(getattr(default, k, None), v, k) for k, v in value.items()},
        )
    if isinstance(value, list):
        return tuple(_from_plain(None, v) for v in value)
    return value


def _load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        return RunConfig.from_json(Path(path).read_text(encoding="utf-8"))
    except DomainError:  # a refused value says so itself
        raise
    except (OSError, ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise DomainError(f"cannot read config {path}: {exc}") from None


# ---------------------------------------------------------------------------
# comparison rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    """One grid point of the method-comparison table (errors in percent)."""

    eps: float
    a_exact: Optional[float] = None
    a_ham: Optional[float] = None
    a_rg: Optional[float] = None
    a_irgm: Optional[float] = None
    rel_err_ham: Optional[float] = None
    rel_err_irgm: Optional[float] = None
    error: str = ""

    CSV_HEADER = "eps,a_exact,a_ham,a_rg,a_irgm,rel_err_ham,rel_err_irgm,error"

    def csv_row(self) -> List[str]:
        """The row's cells, for :func:`csv.writer`: the numbers, each empty
        when missing, then the error."""
        *numbers, error = (getattr(self, f.name) for f in fields(self))
        cells = ["" if v is None or not math.isfinite(v) else f"{v:.11e}" for v in numbers]
        return cells + [error]


def _relative_percent(approx: Optional[float], exact: Optional[float]) -> Optional[float]:
    if approx is None or exact is None:
        return None
    if not (math.isfinite(approx) and math.isfinite(exact)) or exact == 0:
        return None
    return abs((exact - approx) / exact) * 100.0


def _amplitude_record(
    system: str,
    eps: float,
    method: str,
    *,
    preset: Optional[str],
    h_rg: float,
    table_only: bool = False,
    config: Optional[IntegratorConfig] = None,
) -> Dict[str, object]:
    """One method's amplitude at ``eps`` and the settings that produced it."""
    covers = _METHODS[method].system
    if covers not in (None, system):
        raise DomainError(
            f"method {method!r} ({_METHODS[method].label}) covers the {covers} "
            f"system, not {system}"
        )
    if method == "exact":  # a sweep point's reading: no period is sampled
        amplitude, period, readings, *_ = _converge(
            OscillatorSpec(system, eps), config or IntegratorConfig()
        )
        return {"amplitude": amplitude, "period": period, "cycles_used": len(readings)}
    if method == "ham":
        return {
            "amplitude": amplitude_ham(eps, table_only=table_only),
            "control_h": control_h(eps, table_only=table_only),
        }
    if method == "rg":
        return {"amplitude": a_rg(eps)}
    if method == "fit":
        return {"amplitude": vdp_fit(eps)}
    name = preset or _DEFAULT_PRESET[system]
    calibration = get_preset(name)
    if calibration.system != system:
        raise DomainError(
            f"preset {name!r} calibrates the {calibration.system} system, "
            f"not {system}"
        )
    amplitude = amplitude_irgm(eps, h_rg, calibration.constant)
    return {"amplitude": amplitude, "preset": name, "h_rg": h_rg}


def build_comparison(
    system: str,
    eps_grid: Sequence[float],
    methods: Sequence[str],
    *,
    config: Optional[IntegratorConfig] = None,
    jobs: int = 1,
    preset: Optional[str] = None,
    h_rg: float = 1.0,
) -> List[ComparisonRow]:
    """Evaluate the requested methods over the grid, one row per point.

    Per-point integration failures land in the row's ``error`` column and
    the run continues.  Two methods that fill the same column (``irgm`` and
    ``fit``) are mutually exclusive in one table.
    """
    system = _canonical_system(system)
    owners: Dict[str, str] = {}
    for method in methods:
        if method not in _METHODS:
            raise DomainError(f"unknown method {method!r}; choose from {tuple(_METHODS)}")
        owner = owners.setdefault(_METHODS[method].column, method)
        if owner != method:
            raise DomainError(
                f"{owner} and {method} share the closed-form column; "
                "request one of them"
            )

    swept = [(math.nan, "")] * len(eps_grid)
    if "exact" in methods:  # the sweep keeps the grid's order
        curve = amplitude_sweep(system, eps_grid, config, jobs=jobs)
        swept = zip(curve.amplitude.tolist(), curve.errors)

    closed_forms = [m for m in methods if m != "exact"]
    rows = []
    for eps, (amplitude, message) in zip(eps_grid, swept):
        a_exact = amplitude if math.isfinite(amplitude) else None
        values: Dict[str, Optional[float]] = {"a_exact": a_exact}
        notes = [message] if message else []
        for method in closed_forms:
            try:
                values[_METHODS[method].column] = _amplitude_record(
                    system, eps, method, preset=preset, h_rg=h_rg
                )["amplitude"]
            except DomainError as exc:
                notes.append(f"{method}: {exc}")
        rows.append(
            ComparisonRow(
                eps=eps,
                **values,
                rel_err_ham=_relative_percent(values.get("a_ham"), a_exact),
                rel_err_irgm=_relative_percent(values.get("a_irgm"), a_exact),
                error="; ".join(notes),
            )
        )
    return rows


def write_comparison_csv(rows: Sequence[ComparisonRow], path) -> None:
    """Write the comparison table; an error cell with a comma is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(ComparisonRow.CSV_HEADER + "\n")
        out = csv.writer(fh, lineterminator="\n")
        for row in rows:
            out.writerow(row.csv_row())


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _resolve_output_dir(flag_value: Optional[str]) -> Path:
    value = flag_value or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_grid(text: str) -> Tuple[float, ...]:
    """Either a comma list (``0.5,1,2``) or ``start:stop:step`` inclusive."""
    text = text.strip()
    ranged = ":" in text
    try:  # a range keeps its empty parts, which fail here
        parts = [float(p) for p in text.split(":" if ranged else ",") if ranged or p.strip()]
    except ValueError:
        raise DomainError(f"cannot parse grid {text!r}") from None
    if not ranged:
        return tuple(parts)
    if len(parts) != 3:
        raise DomainError(f"grid range must be start:stop:step, got {text!r}")
    start, stop, step = parts
    if not all(map(math.isfinite, parts)) or step <= 0 or stop < start:
        raise DomainError(f"bad grid range {text!r}")
    n = int(round((stop - start) / step))
    values = [start + i * step for i in range(n + 1)]
    if values[-1] > stop + 1e-9 * step:
        values.pop()
    return tuple(round(v, 12) for v in values)


_PLOT_SAMPLES = 120  # points per piece in a plotted curve


def _curve_series(curve: geometry.PiecewiseCurve, label: str) -> Series:
    """Sample a curve's real pieces (and their mirror) with NaN breaks between."""
    xs: List[float] = []
    ys: List[float] = []
    real = geometry.clipped(curve)
    for sign in (1.0, -1.0) if curve.symmetric else (1.0,):
        for piece in real.pieces:
            if xs:
                xs.append(math.nan)
                ys.append(math.nan)
            grid = np.linspace(piece.y_low, piece.y_high, _PLOT_SAMPLES)
            xs.extend((sign * grid).tolist())
            ys.extend((sign * piece.value(grid)).tolist())
    return Series(label, xs, ys, dashed=True)


def _eps_label(eps: float) -> str:
    return f"{eps:g}".replace(".", "p")


def _exact_cycle(
    system: str, eps: float, config: IntegratorConfig, out_dir: Path, fit_tol
):
    """The limit cycle at ``eps`` and, given ``fit_tol``, its arc/segment fit,
    written as a curve file; returns the cycle, the fit and the file's path."""
    if fit_tol is not None:
        geometry.check_fit_tol(fit_tol)  # before the integration, not after
    cycle = limit_cycle(OscillatorSpec(system, eps), config)
    if fit_tol is None:
        return cycle, None, None
    fitted = geometry.fit_cycle(cycle, tol=fit_tol)
    curve_path = out_dir / f"fit_{system}_eps{_eps_label(eps)}.curve"
    geometry.write_curve(fitted, curve_path)
    return cycle, fitted, curve_path


def _save_portrait(
    out_dir: Path, system: str, eps: float, cycle, overlays: List[Series]
) -> Path:
    """Plot the closed exact cycle under the overlays as a phase portrait."""
    path = out_dir / f"phase_{system}_eps{_eps_label(eps)}.svg"
    closed_y = np.append(cycle.y, cycle.y[0])
    closed_z = np.append(cycle.z, cycle.z[0])
    save_plot(
        path,
        [Series("exact cycle", closed_y, closed_z), *overlays],
        title=f"{system} limit cycle, eps = {eps:g}",
        xlabel="y", ylabel="dy/dt",
    )
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_amplitude(args) -> int:
    system = _canonical_system(args.system)
    eps = float(args.eps)
    out_dir = _resolve_output_dir(args.output_dir)
    record = {
        "system": system,
        "eps": eps,
        "method": args.method,
        **_amplitude_record(
            system, eps, args.method,
            preset=args.preset, h_rg=args.hrg, table_only=args.table_only,
            config=IntegratorConfig(rel_tol=args.rel_tol),
        ),
    }
    print(f"amplitude = {record['amplitude']:.10g}")
    path = out_dir / f"amplitude_{system}_{args.method}_eps{_eps_label(eps)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    if args.system is not None:
        config = replace(config, system=_canonical_system(args.system))
    if args.grid is not None:
        config = replace(config, eps_grid=_parse_grid(args.grid))
    if args.preset is not None:
        config = replace(config, irgm_preset=args.preset)
    out_dir = _resolve_output_dir(args.output_dir or config.output_dir)

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    rows = build_comparison(
        config.system,
        config.eps_grid,
        methods,
        config=config.integrator,
        jobs=args.jobs,
        preset=config.irgm_preset,
        h_rg=args.hrg,
    )

    csv_path = out_dir / f"sweep_{config.system}.csv"
    svg_path = out_dir / f"sweep_{config.system}.svg"
    _save_comparison(rows, methods, config.system, csv_path, svg_path)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")

    for column, label in (("rel_err_ham", "ham"), ("rel_err_irgm", "irgm/fit")):
        errs = [getattr(r, column) for r in rows if getattr(r, column) is not None]
        if errs:
            print(f"max rel err ({label}) = {max(errs):.6g}%")
    failures = [r for r in rows if r.error]
    if failures:
        print(f"{len(failures)} grid point(s) recorded errors; see the CSV")
    return 0


def _save_comparison(
    rows: Sequence[ComparisonRow],
    methods: Sequence[str],
    system: str,
    csv_path: Path,
    svg_path: Path,
) -> None:
    """Write the comparison table and plot its amplitude columns over eps."""
    write_comparison_csv(rows, csv_path)
    eps = [r.eps for r in rows]
    series = []
    for method, spec in _METHODS.items():
        if method in methods:
            values = [getattr(r, spec.column) for r in rows]
            values = [math.nan if v is None else v for v in values]
            measured = method == "exact"
            series.append(
                Series(spec.label, eps, values, dashed=not measured, markers=measured)
            )
    save_plot(
        svg_path,
        series,
        title=f"{system}: amplitude vs nonlinearity",
        xlabel="eps", ylabel="amplitude",
    )


def cmd_cycle(args) -> int:
    system = _canonical_system(args.system)
    eps = float(args.eps)
    out_dir = _resolve_output_dir(args.output_dir)
    config = IntegratorConfig(n_samples=args.samples)
    table = _bundled_for(system, eps) if args.appendix_c else None  # before any work
    cycle, fitted, curve_path = _exact_cycle(system, eps, config, out_dir, args.fit)

    csv_path = out_dir / f"cycle_{system}_eps{_eps_label(eps)}.csv"
    cycle.write_csv(csv_path)
    print(f"amplitude = {cycle.amplitude:.10g}")
    print(f"period = {cycle.period:.10g}")
    print(f"wrote {csv_path}")

    overlays = []
    if fitted is not None:
        print(f"wrote {curve_path}")
        _print_fit_summary(fitted, cycle)
        overlays.append(_curve_series(fitted, f"arc/segment fit (tol {args.fit:g})"))

    if table is not None:
        overlays.append(_curve_series(table, "published table"))
        _print_table_audit(table, cycle)

    print(f"wrote {_save_portrait(out_dir, system, eps, cycle, overlays)}")
    return 0


def _bundled_for(system: str, eps: float) -> geometry.PiecewiseCurve:
    if eps != 5.0:
        raise DomainError("bundled reference tables exist only for eps = 5")
    name = "rayleigh_eps5" if system == RAYLEIGH else "vdp_eps5"
    return geometry.load_bundled(name)


def _print_fit_summary(curve: geometry.PiecewiseCurve, cycle) -> None:
    report = geometry.curve_distance(curve, cycle)
    gaps = [j.gap for j in geometry.joint_gaps(curve) if j.gap is not None]
    arcs = sum(isinstance(p.shape, geometry.Arc) for p in curve.pieces)
    print(
        f"fit: {len(curve.pieces)} pieces ({arcs} arcs, "
        f"{len(curve.pieces) - arcs} segments), "
        f"max distance {report.max_dist:.4g}, mean {report.mean_dist:.4g}, "
        f"largest joint gap {max(gaps) if gaps else 0.0:.4g}"
    )


def _print_table_audit(table: geometry.PiecewiseCurve, cycle) -> None:
    print(f"published table {table.name!r}: {len(table.pieces)} pieces")
    for joint in geometry.joint_gaps(table):
        if joint.gap is None:
            print(
                f"  joint y={joint.joint_y:g}: {joint.defect} "
                f"(pieces {joint.left_piece}/{joint.right_piece})"
            )
        else:
            print(f"  joint y={joint.joint_y:g}: gap {joint.gap:.4g}")
    for audit in geometry.domain_audit(table):
        if audit.status != "real":
            print(f"  piece {audit.index} is {audit.status}: {audit.detail}")
    report = geometry.curve_distance(table, cycle)
    print(
        f"  distance to the exact cycle: max {report.max_dist:.4g}, "
        f"mean {report.mean_dist:.4g}"
    )


def cmd_report(args) -> int:
    config = _load_config(args.config)
    out_dir = _resolve_output_dir(args.output_dir or config.output_dir)
    notes: List[str] = []

    # the exact-vs-closed-form comparisons of steps 2-3: the tuned expansion
    # on Rayleigh, the two-branch fit on van der Pol, at their published
    # bounds; swept first, so an anchor on a grid states its row's amplitude
    comparisons = (
        (
            "rayleigh", RAYLEIGH, config.eps_grid, ("exact", "ham", "rg", "irgm"),
            "rel_err_ham", HAM_BOUND, "tuned-2nd-order",
            "tuned second-order claim (<{:g}%) not reproduced",
        ),
        (
            "vdp", VAN_DER_POL, VDP_FIT_GRID, ("exact", "fit"),
            "rel_err_irgm", VDP_FIT_BOUND, "two-branch fit",
            "two-branch fit claim (<{:g}%) not reproduced on the report grid",
        ),
    )
    tables = [
        build_comparison(system, grid, methods, config=config.integrator, jobs=args.jobs,
                         preset=config.irgm_preset)
        for _, system, grid, methods, *_ in comparisons
    ]
    swept = {(system, row.eps): row
             for (_, system, *_), rows in zip(comparisons, tables) for row in rows}

    # 1. anchor amplitudes
    anchors = []
    for system, eps, cited, tol in ANCHORS:
        # an anchor off the grids is a one-point sweep; a failed one ends the report
        row = swept.get((system, eps)) or build_comparison(
            system, [eps], ("exact",), config=config.integrator
        )[0]
        if row.a_exact is None:
            raise ConvergenceError(f"anchor {system} eps={eps:g}: {row.error}")
        amplitude = row.a_exact
        gap = abs(amplitude - cited)
        flag = "ok" if gap <= tol else "MISMATCH"
        anchors.append(
            {
                "system": system,
                "eps": eps,
                "amplitude": amplitude,
                "published": cited,
                "difference": gap,
                "status": flag,
            }
        )
        print(
            f"anchor {system} eps={eps:g}: {amplitude:.6f} "
            f"(published {cited}) {flag}"
        )
        if flag != "ok":
            notes.append(
                f"anchor {system} eps={eps:g}: recomputed {amplitude:.6f} "
                f"vs published {cited} (|diff| = {gap:.2e} > {tol})"
            )
    (out_dir / "anchors.json").write_text(
        json.dumps(anchors, indent=2) + "\n", encoding="utf-8"
    )

    # 2-3. the comparison tables and their worst errors
    for (prefix, system, _, methods, column, bound, label, claim), rows in zip(
        comparisons, tables
    ):
        _save_comparison(
            rows, methods, system,
            out_dir / f"{prefix}_comparison.csv", out_dir / f"{prefix}_amplitude.svg",
        )
        errs = [getattr(r, column) for r in rows if getattr(r, column) is not None]
        if errs:
            worst = max(errs)
            print(f"{system} {label} worst rel err: {worst:.4g}%")
            if worst >= bound:
                notes.append(f"{claim.format(bound)}: worst {worst:.4g}%")

    # 4. phase portraits with fits and published tables
    for system in (RAYLEIGH, VAN_DER_POL):
        cycle, fitted, _ = _exact_cycle(
            system, 5.0, replace(config.integrator, n_samples=2000), out_dir, 0.1
        )
        table = _bundled_for(system, 5.0)
        overlays = [
            _curve_series(fitted, "arc/segment fit"),
            _curve_series(table, "published table"),
        ]
        _save_portrait(out_dir, system, 5.0, cycle, overlays)
        table_report = geometry.curve_distance(table, cycle)
        for audit in geometry.domain_audit(table):
            if audit.status != "real":
                notes.append(
                    f"published {system} table, piece {audit.index} is "
                    f"{audit.status}: {audit.detail}"
                )
        numeric_gaps = [
            j.gap for j in geometry.joint_gaps(table) if j.gap is not None
        ]
        notes.append(
            f"published {system} table: max joint gap {max(numeric_gaps):.4g}, "
            f"max distance to the exact cycle {table_report.max_dist:.4g}"
        )

    # 5. calibration consistency and control-law seams
    for line in consistency_report():
        print(line)
        if "INCONSISTENT" in line:
            notes.append(line)

    jumps = breakpoint_jumps()
    for eps_break, jump in sorted(jumps.items()):
        if jump > SEAM_BOUND:
            notes.append(
                f"control-law amplitude jump at eps={eps_break:g} is {jump:.4g} "
                f"(the stated secondary bound of {SEAM_BOUND:g} is exceeded)"
            )

    # 6. the published van der Pol amplitude maximum is the hump's value
    fine = np.arange(0.5, 4.0 + 1e-9, 0.01)
    fit_amp = np.array([vdp_fit(e) for e in fine])
    peak = int(np.argmax(fit_amp))
    hump, hump_amp = float(fine[peak]), float(fit_amp[peak])
    print(f"two-branch fit maximum near eps = {hump:.2f}")
    notes.append(
        f"amplitude maximum: the published {VDP_PEAK:g} is the hump value; the "
        f"two-branch fit peaks at {hump_amp:.5f} near eps = {hump:.2f} "
        f"(as does the exact sweep), so reading {VDP_PEAK:g} as the hump's eps "
        f"contradicts the fit"
    )

    notes_path = out_dir / "discrepancy_notes.txt"
    header = [
        "Discrepancies between published values and recomputation",
        "=" * 56,
    ]
    notes_path.write_text(
        "\n".join(header + [f"- {n}" for n in notes]) + "\n", encoding="utf-8"
    )
    print(f"wrote {notes_path} ({len(notes)} notes)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitcycles",
        description="Limit-cycle amplitudes of Rayleigh/van der Pol oscillators "
        "by integration, tuned expansion, flow balance, and calibrated closed forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument(
            "--output-dir",
            help=f"artifact directory (default: a config's output_dir, else "
            f"${OUTPUT_DIR_ENV}, else the working directory)",
        )

    p = sub.add_parser("amplitude", help="one amplitude by one method")
    p.add_argument("--system", required=True, help="rayleigh or vdp")
    p.add_argument("--eps", required=True, type=float, help="nonlinearity strength")
    p.add_argument("--method", required=True, choices=_METHODS)
    p.add_argument("--preset", help="calibration preset for --method irgm")
    p.add_argument(
        "--hrg", type=float, default=1.0,
        help="scaling exponent for --method irgm (default 1.0)",
    )
    p.add_argument(
        "--table-only", action="store_true",
        help="for --method ham: use the stepwise table beyond its last row "
        "instead of the linear tail",
    )
    p.add_argument(
        "--rel-tol", type=float, default=IntegratorConfig.rel_tol,
        help="integrator tolerance for --method exact",
    )
    add_output(p)
    p.set_defaults(func=cmd_amplitude)

    p = sub.add_parser("sweep", help="comparison table over a grid")
    p.add_argument("--system", help="rayleigh or vdp (default from config)")
    p.add_argument(
        "--grid", help="comma list (0.5,1,2) or start:stop:step (0.5:4:0.05)"
    )
    p.add_argument(
        "--methods", default="exact",
        help="comma list from exact,ham,rg,irgm,fit (default: exact)",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel integrations")
    p.add_argument("--preset", help="calibration preset for irgm")
    p.add_argument("--hrg", type=float, default=1.0, help="irgm scaling exponent")
    p.add_argument("--config", help="RunConfig JSON file")
    add_output(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cycle", help="integrate one limit cycle")
    p.add_argument("--system", required=True)
    p.add_argument("--eps", required=True, type=float)
    p.add_argument(
        "--fit", type=float, metavar="TOL",
        help="also fit arcs/segments at this tolerance and overlay",
    )
    p.add_argument(
        "--appendix-c", action="store_true",
        help="overlay the bundled published table (eps = 5 only) and audit it",
    )
    p.add_argument("--samples", type=int, default=2000, help="points per period")
    add_output(p)
    p.set_defaults(func=cmd_cycle)

    p = sub.add_parser(
        "report", help="emit the full reproduction bundle with discrepancy notes"
    )
    p.add_argument("--config", help="RunConfig JSON file")
    p.add_argument("--jobs", type=int, default=1)
    add_output(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:  # before any work is done
            raise DomainError(f"jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
