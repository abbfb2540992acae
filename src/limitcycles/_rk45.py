"""The float RK45 stepper of :mod:`limitcycles.integrator`, kept apart as
the package's only module that imports :mod:`scipy.integrate` at load."""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import RK45


# scipy's step-size controller for its explicit Runge-Kutta methods
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


class _PlanarRK45(RK45):
    """scipy's RK45 with each step taken in Python floats on the ``(y, z)`` pair.

    The tableau is :class:`~scipy.integrate.RK45`'s own, and so are the RMS
    error norm, the step-size controller and the ``10 ulp(t)`` minimum step;
    only numpy's per-call cost on two-element arrays is gone.  The raw
    right-hand side is called with a tuple, six times per attempted step.
    The stages of the last accepted step are kept as floats and become
    scipy's ``K`` only when :func:`solve_ivp` asks for an interpolant, so
    events and ``t_eval`` use RK45's quartic dense output unchanged.
    Tolerances are scalars, as :class:`IntegratorConfig` holds them.
    """

    _c = _floats(RK45.C)
    _a = tuple(_floats(row[:i]) for i, row in enumerate(RK45.A))
    _b = _floats(RK45.B)
    _e = _floats(RK45.E)

    def __init__(self, fun, t0, y0, t_bound, **options):
        self._rhs = fun
        super().__init__(fun, t0, y0, t_bound, **options)
        self.f = tuple(self.f.tolist())
        self.h_abs = float(self.h_abs)
        self.direction = float(self.direction)
        self.rtol, self.atol = float(self.rtol), float(self.atol)
        self._stages = None

    def _step_impl(self):
        fun, t, t_bound = self._rhs, self.t, self.t_bound
        direction, max_step = self.direction, self.max_step
        rtol, atol = self.rtol, self.atol
        exponent = self.error_exponent
        _, c2, c3, c4, c5, c6 = self._c
        _, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (
            a61, a62, a63, a64, a65
        ) = self._a
        b1, b2, b3, b4, b5, b6 = self._b
        e1, e2, e3, e4, e5, e6, e7 = self._e
        y, z = self.y.tolist()
        k1y, k1z = self.f

        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(self.h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            k2y, k2z = fun(t + c2 * h, (y + a21 * k1y * h, z + a21 * k1z * h))
            k3y, k3z = fun(
                t + c3 * h,
                (y + (a31 * k1y + a32 * k2y) * h, z + (a31 * k1z + a32 * k2z) * h),
            )
            k4y, k4z = fun(
                t + c4 * h,
                (
                    y + (a41 * k1y + a42 * k2y + a43 * k3y) * h,
                    z + (a41 * k1z + a42 * k2z + a43 * k3z) * h,
                ),
            )
            k5y, k5z = fun(
                t + c5 * h,
                (
                    y + (a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y) * h,
                    z + (a51 * k1z + a52 * k2z + a53 * k3z + a54 * k4z) * h,
                ),
            )
            k6y, k6z = fun(
                t + c6 * h,
                (
                    y
                    + (a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y) * h,
                    z
                    + (a61 * k1z + a62 * k2z + a63 * k3z + a64 * k4z + a65 * k5z) * h,
                ),
            )
            y_new = y + h * (
                b1 * k1y + b2 * k2y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y
            )
            z_new = z + h * (
                b1 * k1z + b2 * k2z + b3 * k3z + b4 * k4z + b5 * k5z + b6 * k6z
            )
            k7y, k7z = fun(t + h, (y_new, z_new))
            self.nfev += 6

            err_y = (
                e1 * k1y + e2 * k2y + e3 * k3y + e4 * k4y
                + e5 * k5y + e6 * k6y + e7 * k7y
            ) * h / (atol + max(abs(y), abs(y_new)) * rtol)
            err_z = (
                e1 * k1z + e2 * k2z + e3 * k3z + e4 * k4z
                + e5 * k5z + e6 * k6z + e7 * k7z
            ) * h / (atol + max(abs(z), abs(z_new)) * rtol)
            error_norm = math.sqrt(0.5 * (err_y * err_y + err_z * err_z))
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**exponent)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**exponent)
            rejected = True

        self.y_old = self.y
        self.t = t_new
        self.y = np.array((y_new, z_new))
        self.h_abs = h_abs
        self.f = (k7y, k7z)
        self._stages = (
            k1y, k1z, k2y, k2z, k3y, k3z, k4y, k4z, k5y, k5z, k6y, k6z, k7y, k7z
        )
        return True, None

    def _dense_output_impl(self):
        self.K = np.reshape(self._stages, self.K.shape)
        return super()._dense_output_impl()
