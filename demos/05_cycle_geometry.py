"""
Limit cycles as arcs and segments
=================================

At eps = 5 both oscillators have strongly non-circular cycles, yet a handful
of circular arcs and straight segments describes each upper half to about a
tenth.  This script audits the published piecewise tables (defects
included), fits fresh curves to integrated cycles, and writes phase-plane
SVG plots plus round-trippable curve files into ``demos/output/``.
"""

from pathlib import Path

import numpy as np

from limitcycles import (
    IntegratorConfig,
    OscillatorSpec,
    curve_distance,
    domain_audit,
    fit_cycle,
    limit_cycle,
    load_bundled,
    write_curve,
)
from limitcycles.geometry import joint_gaps
from limitcycles.svgplot import Series, save_plot

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# ---------------------------------------------------------------------------
# The bundled tables are shipped verbatim, so their defects are real data:
# the audit finds arcs whose stated domains poke outside the region where
# their square roots are real -- one van der Pol piece is nowhere real.
# ---------------------------------------------------------------------------

for name in ("rayleigh_eps5", "vdp_eps5"):
    table = load_bundled(name)
    print(f"{table.name}: {len(table.pieces)} pieces")
    for audit in domain_audit(table):
        if audit.status != "real":
            print(f"  piece {audit.index}: {audit.status} ({audit.detail})")
    gaps = [j.gap for j in joint_gaps(table) if j.gap is not None]
    print(f"  joint gaps: max {max(gaps):.4f} over {len(gaps)} joints")

# ---------------------------------------------------------------------------
# Integrate the exact cycles, score the tables against them, and fit fresh
# curves: arcs/segments through window endpoints, grown greedily while the
# residual stays below tolerance.
# ---------------------------------------------------------------------------

config = IntegratorConfig(n_samples=2000)
for kind, bundle in (("rayleigh", "rayleigh_eps5"), ("vanderpol", "vdp_eps5")):
    spec = (
        OscillatorSpec.rayleigh(5.0)
        if kind == "rayleigh"
        else OscillatorSpec.van_der_pol(5.0)
    )
    cycle = limit_cycle(spec, config)
    table = load_bundled(bundle)
    fitted = fit_cycle(cycle, tol=0.1)

    table_score = curve_distance(table, cycle)
    fit_score = curve_distance(fitted, cycle)
    print()
    print(f"{kind} at eps=5: amplitude {cycle.amplitude:.5f}, period {cycle.period:.5f}")
    print(f"  published table: max distance {table_score.max_dist:.4f}")
    print(f"  fresh fit:       max distance {fit_score.max_dist:.4f} "
          f"with {len(fitted.pieces)} pieces")

    write_curve(fitted, out / f"{kind}_eps5_fit.curve")

    # sample the fitted curve for plotting (upper half and its mirror)
    xs, ys = [], []
    for sign in (1.0, -1.0):
        for piece in fitted.pieces:
            lo, hi = piece.real_domain()
            grid = np.linspace(lo, hi, 80)
            xs.extend([np.nan] + [sign * y for y in grid])
            ys.extend([np.nan] + [sign * piece.value(y) for y in grid])
    save_plot(
        out / f"{kind}_eps5_phase.svg",
        [
            Series("exact cycle", np.append(cycle.y, cycle.y[0]),
                   np.append(cycle.z, cycle.z[0])),
            Series("arc/segment fit", xs, ys, dashed=True),
        ],
        title=f"{kind} limit cycle at eps = 5",
        xlabel="y",
        ylabel="dy/dt",
    )
    print(f"  wrote {out / f'{kind}_eps5_phase.svg'}")
