"""Shared numerical routines.

Everything here is stateless, and pure but for the CSV writer: adaptive
Gauss-Legendre quadrature, the running trapezoid integral, the PV Hilbert
transform used by the dispersion checks, inverse-square tail fitting and a
complex secant root finder.  The transform helper fixes the package convention

    f(t) = (1/2pi) * integral dw f[w] exp(-i w t)

which is the opposite sign to numpy's FFT, hence the conjugation below.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, FitError, FrequencyRangeError, RootConvergenceError

_GL_LO = np.polynomial.legendre.leggauss(15)
_GL_HI = np.polynomial.legendre.leggauss(30)


@dataclass(frozen=True)
class QuadratureSettings:
    """Controls for the adaptive Gauss-Legendre integrator."""

    abs_tol: float = 1e-10
    max_panels: int = 4000


def adaptive_gauss_legendre(f, a, b, settings=None):
    """Integrate a (possibly complex) vectorizable integrand over [a, b].

    Panels are bisected until the 15- vs 30-node Gauss-Legendre difference
    is below the tolerance share of each panel.  Returns (value, error
    estimate).  Raises AccuracyError when the panel budget is exhausted
    with the estimate still above tolerance.
    """
    settings = settings or QuadratureSettings()
    x_lo, w_lo = _GL_LO
    x_hi, w_hi = _GL_HI
    stack = [(float(a), float(b))]
    total = 0.0 + 0.0j
    err_total = 0.0
    panels = 0
    pending = []
    while stack:
        a0, b0 = stack.pop()
        mid, half = 0.5 * (a0 + b0), 0.5 * (b0 - a0)
        coarse = half * np.sum(w_lo * f(mid + half * x_lo))
        fine = half * np.sum(w_hi * f(mid + half * x_hi))
        err = abs(fine - coarse)
        share = settings.abs_tol * max(1e-300, (b0 - a0) / (b - a))
        panels += 1
        if err <= share:
            total += fine
            err_total += err
        elif panels >= settings.max_panels:
            pending.append((fine, err))
        else:
            stack.append((a0, mid))
            stack.append((mid, b0))
    if pending:
        for fine, err in pending:
            total += fine
            err_total += err
        if err_total > settings.abs_tol:
            raise AccuracyError(
                f"quadrature stalled at {panels} panels "
                f"(error estimate {err_total:.3e} > {settings.abs_tol:.3e})",
                estimate=total,
                error_bound=err_total,
            )
    return total, err_total


def integrate_decades(f, top, settings):
    """Integral of f over [0, top], one adaptive panel per decade [0, 1], [1, 10], ...

    Returns the complex sum of the panel values; the error estimates are
    dropped.
    """
    edges = [0.0, 1.0]
    while edges[-1] < top:
        edges.append(min(edges[-1] * 10.0, top))
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        seg, _ = adaptive_gauss_legendre(f, a, b, settings)
        total += seg
    return total


def running_integral(y, x):
    """Trapezoid integral of y over x from x[0] to each sample, starting at 0.

    The arithmetic is that of scipy's cumulative_trapezoid(y, x, initial=0),
    so the results are bitwise equal.
    """
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


# rows formatted per string operation: a block's Python floats then fit in
# the allocator's reused pools; blocks of 1024 rows left the peak RSS of a
# 30-run simulate queue 3-5 MB (of about 100 MB) higher
_CSV_BLOCK = 64


def write_csv(path, header, columns):
    """Write equal-length real columns under a header line, every value as %.11e.

    The bytes are those of np.savetxt(fmt="%.11e", delimiter=","); each
    block of rows is one % over a repeated row template, so the memory
    held stays bounded whatever the row count.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.11e"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="latin-1", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, table.shape[0], _CSV_BLOCK):
            block = table[start : start + _CSV_BLOCK]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def pv_hilbert_even(grid, values, w, tail_coeff=0.0):
    """Principal-value Kramers-Kronig integral for an even real function.

    Computes  -(1/pi) PV int_{-inf}^{inf} F(w') / (w' - w) dw'  folded onto
    the positive half grid, i.e.  -(2w/pi) PV int_0^inf F(w')/(w'^2-w^2) dw',
    by subtracting the singular value analytically.  ``values`` are samples
    of F on ``grid`` (ascending, starting at or near 0) and ``tail_coeff``
    is the coefficient of an assumed  c/w'^2  decay beyond the grid.

    This is the imaginary part that causality pairs with the given real
    part.  ``w`` must lie strictly inside the grid.
    """
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(grid, values)
    L = grid[-1]
    if not (grid[0] <= w < L):
        raise FrequencyRangeError(f"probe {w} outside sampled interior [{grid[0]}, {L})")
    fw = float(spline(w))
    dfw = float(spline(w, 1))
    denom = (grid - w) * (grid + w)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = (values - fw) * 2.0 * w / denom
    near = np.abs(grid - w) < 1e-12 * max(1.0, w)
    integrand[near] = dfw
    result = np.trapezoid(integrand, grid)
    # analytic PV of the subtracted pole over [0, L]
    result += fw * np.log((L - w) / (L + w))
    # below-grid segment, integrand frozen at the edge value (grid may
    # start above 0); the pole sits outside [0, grid[0]]
    g0 = grid[0]
    if g0 > 0:
        result += (values[0] - fw) * np.log((w - g0) / (w + g0))
    if tail_coeff != 0.0:
        result += _inverse_square_tail(tail_coeff, w, L)
    return -result / np.pi


def cauchy_upper_half(grid, values, w, tail_coeff=0.0):
    """Cauchy integral of an even real function into Im w > 0.

    Returns (1/(i pi)) int F(w') * 2w/(w'^2 - w^2) dw' over the positive
    half grid plus the analytic c/w'^2 tail.  The denominator never
    vanishes for Im w > 0, so plain quadrature suffices.
    """
    L = grid[-1]
    integrand = values * 2.0 * w / (grid * grid - w * w)
    result = np.trapezoid(integrand, grid)
    g0 = grid[0]
    if g0 > 0:
        # below-grid segment with the edge value; smooth for Im w > 0
        seg = np.linspace(0.0, g0, 33)
        result += np.trapezoid(values[0] * 2.0 * w / (seg * seg - w * w), seg)
    if tail_coeff != 0.0:
        result += _inverse_square_tail(tail_coeff, w, L)
    return result / (1j * np.pi)


def _inverse_square_tail(tail_coeff, w, L):
    """Analytic int_L^inf (c/w'^2) * 2w/(w'^2 - w^2) dw' for the c/w'^2 tail."""
    return tail_coeff * (2.0 / w) * (-np.log((L - w) / (L + w)) / (2.0 * w) - 1.0 / L)


def fit_inverse_square_tail(grid, values):
    """Fit c/w^2 to the top decade of a sampled decay; returns c.

    The fit is the mean of values * w^2 over the window, which weights the
    samples the way the subsequent analytic tail integral does.
    """
    mask = grid >= grid[-1] / 10.0
    if mask.sum() < 4:
        raise FitError("fewer than 4 samples in the tail-fit window")
    return float(np.mean(values[mask] * grid[mask] ** 2))


def fit_power_law_slope(grid, values):
    """Log-log least-squares slope over the top decade of the grid."""
    mask = (grid >= grid[-1] / 10.0) & (values > 0)
    if mask.sum() < 4:
        raise FitError("fewer than 4 positive samples in the slope-fit window")
    return float(np.polyfit(np.log(grid[mask]), np.log(values[mask]), 1)[0])


def secant_root(f, z0):
    """Secant iteration for an analytic complex function from a seed z0.

    Stops once a step is below 1e-14 relative and |f| does not grow.
    Returns (root, residual).  Raises RootConvergenceError after 100 steps
    or on a degenerate update.
    """
    z1 = z0 * (1.0 + 1e-4) + 1e-12
    f0, f1 = f(z0), f(z1)
    for _ in range(100):
        if f1 == f0:
            raise RootConvergenceError(f"degenerate secant update near {z1}")
        z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
        z0, f0, z1 = z1, f1, z2
        f1 = f(z1)
        if abs(z1 - z0) <= 1e-14 * max(1.0, abs(z1)) and abs(f1) <= abs(f0):
            return z1, abs(f1)
    raise RootConvergenceError(
        f"secant did not converge in 100 iterations (last {z1}, |f|={abs(f1):.3e})"
    )


def spectrum_to_kernel(spectrum, n, dt):
    """Inverse transform of rfft-layout frequency samples to a time kernel.

    ``spectrum[k]`` holds f[w_k] at w_k = 2 pi k / (n dt).  Output samples
    approximate f(t_j) under the physics sign convention (see module
    docstring); numpy's irfft uses the opposite exponent, hence the
    conjugate.
    """
    return np.fft.irfft(np.conj(spectrum), n=n) / dt
