"""The paper's published numbers and accuracy bounds, each stated once.

The report bundle's discrepancy notes, the acceptance tests, the calibration
presets and the tuned expansion's step-control law all read these values, so
a published claim and the check made of it cannot drift apart.  Bounds on
relative errors are in percent.
"""

from .oscillators import RAYLEIGH, VAN_DER_POL

# Exact amplitudes as ``(system, eps, published a(eps), tolerance)``; the
# tolerance is how far a recomputed amplitude may sit from the published one.
RAYLEIGH_A1 = (RAYLEIGH, 1.0, 2.17271, 0.002)  # Rayleigh: a(1) = 2.17271
RAYLEIGH_A7 = (RAYLEIGH, 7.0, 5.63108, 0.01)  # Rayleigh: a(7) = 5.63108
VDP_A1 = (VAN_DER_POL, 1.0, 2.0086, 0.002)  # van der Pol: a(1) = 2.0086
ANCHORS = (RAYLEIGH_A1, RAYLEIGH_A7, VDP_A1)

# The tuned second-order expansion ``2 + h eps^2/8`` takes its step from the
# reciprocal law ``h = 1/(1/2 + eps*b(eps))``, rows ``(eps_upper, b)``,
# right-closed on ``(previous_upper, eps_upper]``; past eps = 7 the tuned
# amplitude is the line ``TAIL_SLOPE*(eps - 7) + a(7)`` from the anchor above.
B_TABLE = (
    (4.0, 0.162),
    (5.0, 0.165),
    (7.0, 0.168),
    (8.0, 0.171),
    (9.0, 0.174),
    (11.0, 0.176),
    (15.0, 0.179),
    (20.0, 0.181),
    (30.0, 0.183),
    (50.0, 0.185),
)
TAIL_SLOPE = 0.657692

# The tuned second-order expansion stays within 1% of the exact amplitude.
HAM_BOUND = 1.0
# The two-branch van der Pol fit stays within 0.05% of the exact amplitude;
# the report checks that bound on this grid, whatever its own eps grid is.
VDP_FIT_BOUND = 0.05
VDP_FIT_GRID = (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 50.0)
# Secondary bound: the tuned amplitude jumps by at most 0.02 at a breakpoint
# of the step-control law.
SEAM_BOUND = 0.02

# The van der Pol amplitude has its maximum "roughly at 2.0235", read as the
# peak value; the tolerance is one unit in the last published digit.
VDP_PEAK = 2.0235
VDP_PEAK_TOL = 1e-4

# Published integration constants of the calibrated closed forms, fixed by
# the boundary amplitudes a(1) above.
RAYLEIGH_CONSTANT = 0.87953
VDP_CONSTANT = 4.08785
