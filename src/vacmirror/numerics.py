"""Shared numerical routines.

Everything here is stateless, and pure but for the CSV writer: adaptive
Gauss-Legendre quadrature, the running trapezoid integral, the PV Hilbert
transform used by the dispersion checks (on the caller's spline of the
samples), inverse-square tail fitting and its analytic closure, and a
complex secant root finder; only NumPy is imported.  The CSV writer prints
every value as %.11e with NumPy, byte for byte what Python's formatting
prints: 12 digits from a double-double product with a tabulated power of
ten, rounded exactly unless the value lies next to a rounding tie, and
Python formats those alone (see write_csv).  The transform helper fixes
the package convention

    f(t) = (1/2pi) * integral dw f[w] exp(-i w t)

which is the opposite sign to numpy's FFT, hence the conjugation below.
"""

from dataclasses import dataclass
from functools import cache

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


# rows formatted per block: the block's scratch arrays take about 200 bytes a
# value; 4096-row blocks ran no faster and raised the peak RSS of a simulate
# queue by 4 MB (of about 101 MB)
_CSV_BLOCK = 1024
# one value's bytes: sign, lead digit, '.', 11 digits, 'e', exponent sign,
# three exponent digits, separator; the writer drops the sign byte of a
# value >= 0 and the hundreds byte of an exponent below 100
_SLOT = 20
# the fractional part of |x| * 10^(11 - e) is computed to within 2^-52, so a
# value whose fraction lies farther than this from 1/2 rounds the same way
# exactly; a nearer one is left to Python's correctly rounded formatting
_TIE_MARGIN = 2.0**-40
_K_MIN = -300  # 11 - e spans [-298, 336] for doubles, with an estimate off by one
_E_MAX = 330


def _decimal_scales(k_min, k_max):
    """10^k = 2^b * (hi + lo) with 1 <= hi < 2, for k_min <= k <= k_max.

    Built from exact integers: hi is the nearest double to 10^k / 2^b and lo
    the nearest double to the remainder, so hi + lo is 10^k / 2^b to about
    2^-106.  Returns (b, hi, lo) and hi's Dekker split.
    """
    b, hi, lo = [], [], []
    for k in range(k_min, k_max + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        e2 = num.bit_length() - den.bit_length()
        if (num << max(-e2, 0)) < (den << max(e2, 0)):
            e2 -= 1
        num, den = num << max(-e2, 0), den << max(e2, 0)  # num / den in [1, 2)
        h = num / den  # int true division rounds correctly
        p, q = h.as_integer_ratio()
        b.append(e2)
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    hi = np.array(hi)
    return (np.array(b, dtype=np.int32), hi, np.array(lo)) + _split(hi)


def _split(a):
    """Dekker's split of doubles into two 26-bit halves that sum to a exactly."""
    c = 134217729.0 * a
    head = c - (c - a)
    return head, a - head


@cache
def _csv_tables():
    """The writer's read-only tables, built on first use so that importing the
    package does not pay for them: the scales of _decimal_scales, the four
    ASCII digits of each 0 <= i < 10^4 as one word, and the exponent field
    (sign and three digits) of each |e| <= _E_MAX as one word."""
    digits = 48 + np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    exponents = b"".join(b"%+04d" % e for e in range(-_E_MAX, _E_MAX + 1))
    return (_decimal_scales(_K_MIN, 11 + _E_MAX),
            digits.astype(np.uint8).view("=u4")[:, 0],
            np.frombuffer(exponents, dtype="=u4"))


def _scaled(ax, e):
    """|x| * 10^(11 - e) as an unevaluated sum p + low, to within 3 * 2^-65 for p < 2^40.

    |x| * 2^b is exact, and Dekker's two-product gives its product with hi
    exactly as p + err; NumPy has no fused multiply-add to do it instead.
    """
    b, hi, lo, hi_head, hi_tail = (t[11 - e - _K_MIN] for t in _csv_tables()[0])
    xs = np.ldexp(ax, b)
    p = xs * hi
    xs_head, xs_tail = _split(xs)
    err = ((xs_head * hi_head - p) + xs_head * hi_tail + xs_tail * hi_head) + xs_tail * hi_tail
    return p, err + xs * lo


def _format_fallback(values):
    """The values the fast path leaves, each formatted by Python."""
    return [b"%.11e" % v for v in values]


def _format_block(x, slots):
    """The %.11e bytes of the values x, each followed by its slot's separator.

    ``slots`` is an (x.size, _SLOT) byte array holding '-' at 0, 'e' at 14
    and the separator at the end; it is overwritten.
    """
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lg = np.log10(ax)
        live = np.isfinite(lg)  # finite and nonzero
        e = np.floor(np.where(live, lg, 0.0)).astype(np.int64)
        p, low = _scaled(ax, e)
        # the decade from log10 can be off by one next to a power of ten: redo
        # those values with the adjacent exponent
        off = np.flatnonzero(live & ((p < 1e11) | (p > 1e12)))
        if off.size:
            e[off] += np.where(p[off] > 1e12, 1, -1)
            p[off], low[off] = _scaled(ax[off], e[off])
        whole = np.floor(p)
        frac = (p - whole) + low
        # p == 1e12 is a carry whichever side of it the exact product lies
        fast = (ax == 0) | (live & (p >= 1e11) & (p <= 1e12) & (np.abs(frac - 0.5) > _TIE_MARGIN))
        digits = np.where(fast, whole + (frac > 0.5), 0.0).astype(np.int64)
    carry = digits == 10**12
    digits[carry] = 10**11
    e = np.where(fast, e + carry, 0)

    _, digits4, exponents = _csv_tables()
    head = digits // 10**8
    rest = digits - head * 10**8
    mid = rest // 10**4
    slots[:, 2:6].view("=u4")[:, 0] = digits4[head]
    slots[:, 6:10].view("=u4")[:, 0] = digits4[mid]
    slots[:, 10:14].view("=u4")[:, 0] = digits4[rest - mid * 10**4]
    slots[:, 1] = slots[:, 2]
    slots[:, 2] = ord(".")
    slots[:, 15:19].view("=u4")[:, 0] = exponents[e + _E_MAX]
    keep = np.ones(slots.shape, dtype=bool)
    keep[:, 0] = np.signbit(x)
    keep[:, 16] = np.abs(e) >= 100

    slow = np.flatnonzero(~fast)  # nan, +-inf and exact or near ties
    if slow.size:
        text = _format_fallback(x[slow].tolist())
        width = _SLOT - 1
        slots[slow, :width] = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
        keep[slow, :width] = np.arange(width) < np.array([len(t) for t in text])[:, None]
    return slots[keep]


def write_csv(path, header, columns):
    """Write equal-length real columns under a header line, every value as %.11e.

    The bytes are those of np.savetxt(fmt="%.11e", delimiter=",").  A
    finite nonzero x with decade e prints the 12 digits D = rint(y), y =
    |x| * 10^(11 - e), carried into the next decade when D reaches 10^12.
    y is formed as a double-double: |x| * 2^b exactly, times a tabulated
    10^(11 - e) / 2^b = hi + lo (to 2^-106) by Dekker's two-product.  Its
    fractional part is then known to within 2^-52, so rint is exact
    wherever that part lies more than _TIE_MARGIN (2^-40) from 1/2.  Those
    near ties, nan and +-inf are the one fallback: each is formatted alone
    by Python into the same slot layout.  Rows go in blocks of _CSV_BLOCK,
    so the memory held stays bounded whatever the row count.
    """
    table = np.asarray(np.column_stack(columns), dtype=np.float64)
    template = np.zeros((_CSV_BLOCK, table.shape[1], _SLOT), dtype=np.uint8)
    template[..., 0] = ord("-")
    template[..., 14] = ord("e")
    template[..., -1] = ord(",")
    template[:, -1, -1] = ord("\n")
    template = template.reshape(-1, _SLOT)
    with open(path, "wb") as fh:
        fh.write(header.encode("latin-1") + b"\n")
        for start in range(0, table.shape[0], _CSV_BLOCK):
            x = table[start : start + _CSV_BLOCK].ravel()
            fh.write(_format_block(x, template[: x.size].copy()))


_PV_BLOCK = 1 << 16  # integrand values a row-wise transform holds at once


def pv_hilbert_even(grid, values, spline, w, tail_coeff=0.0):
    """Principal-value Kramers-Kronig integral for an even real function.

    Computes  -(1/pi) PV int_{-inf}^{inf} F(w') / (w' - w) dw'  folded onto
    the positive half grid, i.e.  -(2w/pi) PV int_0^inf F(w')/(w'^2-w^2) dw',
    by subtracting the singular value analytically.  ``values`` are samples
    of F on ``grid`` (ascending, starting at or near 0), ``spline`` their
    interpolant, called as spline(w) and, for its slope, spline(w, 1) (a
    scipy CubicSpline is one), and ``tail_coeff`` is the coefficient of an
    assumed  c/w'^2  decay beyond the grid.

    This is the imaginary part that causality pairs with the given real
    part, shaped like ``w``: one probe or an array of them, each strictly
    inside the grid.
    """
    L, g0 = grid[-1], grid[0]
    w = np.asarray(w, dtype=float)
    outside = ~((g0 <= w) & (w < L))
    if outside.any():
        raise FrequencyRangeError(f"probe {w[outside].flat[0]} outside the grid [{g0}, {L})")
    fw, dfw = spline(w), spline(w, 1)
    result = np.empty(w.shape)
    step = max(1, _PV_BLOCK // grid.size)
    for i in range(0, w.size, step):  # a block of probes, one row of grid nodes each
        wb, fb, dfb = (np.ravel(a)[i : i + step, None] for a in (w, fw, dfw))
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = (values - fb) * 2.0 * wb / ((grid - wb) * (grid + wb))
        near = np.abs(grid - wb) < 1e-12 * np.maximum(1.0, wb)
        result.flat[i : i + step] = np.trapezoid(np.where(near, dfb, integrand), grid, axis=-1)
    # analytic PV of the subtracted pole over [0, L]
    result += fw * np.log((L - w) / (L + w))
    # below-grid segment, integrand frozen at the edge value (grid may
    # start above 0); the pole sits outside [0, grid[0]]
    if g0 > 0:
        result += (values[0] - fw) * np.log((w - g0) / (w + g0))
    if tail_coeff != 0.0:
        result += _inverse_square_tail(tail_coeff, w, L)
    return -result / np.pi


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


def decay_slope(grid, values):
    """Top-decade power-law slope of the values floored at 1e-300; -inf if they all vanish there."""
    if np.any(values[grid >= grid[-1] / 10.0]):
        return fit_power_law_slope(grid, np.clip(values, 1e-300, None))
    return -np.inf


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
