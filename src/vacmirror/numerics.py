"""Shared numerical routines.

Everything here is stateless, and pure but for the CSV writer: adaptive
Gauss-Legendre quadrature (a test oracle), the running trapezoid integral,
the piecewise cubic that every sampled curve and table is read as (the
not-a-knot spline, scipy's arithmetic to the bit),
the exact Cauchy integral of piecewise cubics, off the real axis and as its
boundary value from above on it (the principal value plus the residue, which
the dispersion checks read), the (a + b ln w)/w^2 + c/w^3 tail fit with its
integrals in closed form, a complex secant root finder and the FFT length
rule; only NumPy is imported.  The CSV writer prints every value as %.11e
with NumPy, byte for byte what Python's formatting prints: 12 digits from
one rounded product with a tabulated power of ten, which rounds like the
exact product unless it lies next to a rounding tie, and Python formats
those alone (see write_csv_files).  The transform helper fixes the
package convention

    f(t) = (1/2pi) * integral dw f[w] exp(-i w t)

which is the opposite sign to numpy's FFT, hence the conjugation below.
"""

from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import AccuracyError, FitError, RootConvergenceError

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


def running_integral(y, x):
    """Trapezoid integral of y over x from x[0] to each sample, starting at 0.

    The arithmetic is that of scipy's cumulative_trapezoid(y, x, initial=0),
    so the results are bitwise equal.
    """
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


# values formatted per block, whole rows of the distinct columns (819 rows of
# a memory run's 10), so narrow tables pay the per-block overhead no more often
_CSV_BLOCK = 8192
# one value's bytes: sign, lead digit, '.', 11 digits, 'e', exponent sign,
# three exponent digits, separator; the sign byte of a value >= 0 and the
# hundreds byte of an exponent below 100 are written as NUL and deleted
_SLOT = 20
# p = fl(|x| * fl(10^k)) takes two roundings of at most 2^-53 each, so where
# the exact product is below 10^12, p is off by less than 10^12 * 2^-52 *
# (1 + 2^-54) = 2.2e-4 < 2^-12; p < 2^40, so p - rint(p) is exact, and a p
# whose distance to rint(p) is below 1/2 - 2^-12 has the exact product
# strictly inside the same rounding interval; a nearer tie is left to
# Python's correctly rounded formatting
_TIE_MARGIN = 2.0**-12
# the correctly rounded scales 10^k for _K_MIN <= k <= _K_MAX; from _TINY up
# the decades e lie in [-296, 308], so an estimate one off either way still
# finds its scale 10^(11 - e) in the table, and the nonzero values below
# _TINY go to the fallback
_K_MIN, _K_MAX = -300, 308
_TINY = 1e-296
_E_MAX = 308  # the largest decade of a double


@cache
def _csv_tables():
    """The writer's read-only tables, built on first use so that importing the
    package does not pay for them: the correctly rounded 10^k for _K_MIN <= k
    <= _K_MAX, the four ASCII digits of each 0 <= i < 10^4 as one word, and
    the exponent field (sign, hundreds digit or NUL below 100, two digits) of
    each |e| <= _E_MAX as one word."""
    scales = np.array([float(f"1e{k}") for k in range(_K_MIN, _K_MAX + 1)])
    digits = 48 + np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    words = [b"%+04d" % e for e in range(-_E_MAX, _E_MAX + 1)]
    exponents = b"".join(w[:1] + b"\0" + w[2:] if w[1:2] == b"0" else w for w in words)
    return scales, digits.astype(np.uint8).view("=u4")[:, 0], np.frombuffer(exponents, dtype="=u4")


def _format_fallback(values):
    """The values the fast path leaves, each formatted by Python."""
    return [b"%.11e" % v for v in values]


def _format_block(x):
    """The %.11e bytes of the values x in (x.size, _SLOT) slots: 'e' at 14,
    ',' at the end, and NUL for the bytes a value does not print."""
    slots = np.zeros((x.size, _SLOT), dtype=np.uint8)
    slots[:, 14] = ord("e")
    slots[:, -1] = ord(",")
    scales, digits4, exponents = _csv_tables()
    ax = np.abs(x)
    live = (ax >= _TINY) & (ax < np.inf)
    e = np.floor(np.log10(np.where(live, ax, 1.0))).astype(np.int64)
    with np.errstate(invalid="ignore"):  # inf - inf, and signalling nans
        p = ax * scales[11 - _K_MIN - e]
        # the decade from log10 can be off by one next to a power of ten: redo
        # those values with the adjacent exponent, and leave to the fallback
        # any that still fall outside [1e11, 1e12]
        off = np.flatnonzero(live & ((p < 1e11) | (p > 1e12)))
        if off.size:
            e[off] += np.where(p[off] > 1e12, 1, -1)
            p[off] = ax[off] * scales[11 - _K_MIN - e[off]]
            p[off[(p[off] < 1e11) | (p[off] > 1e12)]] = np.nan
        # p == 1e12 is a carry whichever side of it the exact product lies
        digits = np.rint(p)
        fast = (np.abs(p - digits) < 0.5 - _TIE_MARGIN) & (live | (ax == 0))
    digits = np.where(fast, digits, 0.0).astype(np.int64)
    carry = digits == 10**12
    digits[carry] = 10**11
    e = np.where(fast, e + carry, 0)

    head = digits // 10**8
    rest = digits - head * 10**8
    mid = rest // 10**4
    slots[:, 2:6].view("=u4")[:, 0] = digits4[head]
    slots[:, 6:10].view("=u4")[:, 0] = digits4[mid]
    slots[:, 10:14].view("=u4")[:, 0] = digits4[rest - mid * 10**4]
    slots[:, 1] = slots[:, 2]
    slots[:, 2] = ord(".")
    slots[:, 15:19].view("=u4")[:, 0] = exponents[e + _E_MAX]
    slots[:, 0] = np.signbit(x) * np.uint8(ord("-"))

    slow = np.flatnonzero(~fast)  # nan, +-inf, values below _TINY and near ties
    if slow.size:
        width = _SLOT - 1  # each text NUL-padded to the separator
        text = np.array(_format_fallback(x[slow].tolist()), dtype=f"S{width}")
        slots[slow, :width] = text.view(np.uint8).reshape(-1, width)
    return slots


def write_csv_files(files):
    """Write each (path, header, columns) of ``files`` in one pass: equal-length
    real columns under a header line, every value as %.11e.

    The bytes are those of np.savetxt(fmt="%.11e", delimiter=",").  A
    finite nonzero x with decade e prints the 12 digits D = rint(y), y =
    |x| * 10^(11 - e), carried into the next decade when D reaches 10^12.
    y is taken as the one rounded product p = |x| * fl(10^(11 - e)), within
    _TIE_MARGIN (2^-12) of it, so rint(p) is exact wherever p lies farther
    than that from a half-integer.  Those near ties, nan, +-inf and the
    values below _TINY are the one fallback: each is formatted alone by
    Python into the same slot.  Every slot is written in full with NUL for
    the bytes a value does not print.  Rows go in blocks of about _CSV_BLOCK
    values, so the memory held stays bounded; a column several files hold
    (one array, or a view of its first rows) is formatted once, each file
    takes its slots from there into one bytes.translate, and every column is
    held to the end, so no two distinct arrays can share a data address.
    """
    columns, index, tables = [], {}, []
    for path, header, cols in files:
        cols = [np.asarray(c, dtype=np.float64) for c in cols]
        if len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
            raise ValueError(f"{path}: the columns must be 1-d arrays of one length")
        take = [index.setdefault((c.__array_interface__["data"][0], c.strides), len(index))
                for c in cols]
        for j, c in zip(take, cols):
            if j == len(columns):
                columns.append(c)
            elif c.size > columns[j].size:
                columns[j] = c
        tables.append((path, header, cols, take))
    length = max(cols[0].size for _, _, cols, _ in tables)
    rows = max(1, _CSV_BLOCK // len(columns))
    with ExitStack() as stack:
        handles = []
        for path, header, cols, take in tables:
            handles.append((stack.enter_context(open(path, "wb")), take, cols[0].size))
            handles[-1][0].write(header.encode("latin-1") + b"\n")
        for start in range(0, length, rows):
            x = np.zeros((min(rows, length - start), len(columns)))
            for j, c in enumerate(columns):
                part = c[start : start + len(x)]
                x[: part.size, j] = part
            slots = _format_block(x.ravel()).reshape(*x.shape, _SLOT)
            for fh, take, size in handles:
                if start < size:
                    block = slots[: size - start].take(take, axis=1)
                    block[:, -1, -1] = ord("\n")
                    fh.write(block.tobytes().translate(None, b"\0"))


def write_csv(path, header, columns):
    """write_csv_files for one file."""
    write_csv_files([(path, header, columns)])


@dataclass(frozen=True)
class PiecewiseCubic:
    """A C^1 piecewise cubic on breakpoints x: ``c[:, i]`` holds its piece on
    [x_i, x_(i+1)] in powers of w - x_i, highest first (a scipy PPoly's
    layout, which ``cubic_cauchy`` reads).  ``not_a_knot`` fits it to samples
    y at x: the interpolating cubic spline of de Boor (A Practical Guide to
    Splines, 1978), in the order of arithmetic of scipy's CubicSpline, so that
    its coefficients, values and integral are scipy's to the bit.
    """

    x: np.ndarray
    c: np.ndarray

    @classmethod
    def not_a_knot(cls, x, y):
        """The cubic spline through real samples y at increasing x, at least 3,
        with a continuous third derivative at x_1 and x_(n-2); with 3 samples,
        the parabola through them.  Its node slopes solve one tridiagonal
        system in one sweep with partial pivoting, step for step LAPACK's
        gtsv, which scipy calls: a row is swapped with the next where that
        one's subdiagonal entry outgrows the pivot (only on strongly graded
        grids, as every inner row dominates its diagonal), and the swap fills
        in one entry right of the superdiagonal."""
        n = x.size
        if n < 3:
            raise ValueError("a not-a-knot spline needs at least 3 samples")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        diag, upper, lower, rhs = np.empty(n), np.empty(n - 1), np.empty(n - 1), np.empty(n)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:] = dx[:-1]
        lower[:-1] = dx[1:]
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        if n == 3:  # one condition for both ends: s_i + s_(i+1) = 2 slope_i
            diag[[0, -1]] = upper[0] = lower[-1] = 1.0
            rhs[[0, -1]] = 2 * slope
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            diag[0], upper[0], diag[-1], lower[-1] = dx[1], d0, dx[-2], d1
            rhs[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
            rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        # forward: row i as eliminated so far is (pivot, up, rhs); each finished
        # row goes to ``rows`` as (pivot, up, fill, rhs) for the back substitution
        pivot, up, r = float(diag[0]), float(upper[0]), float(rhs[0])
        rows = []
        for low, d_next, up_next, r_next in zip(lower.tolist(), diag[1:].tolist(),
                                                upper[1:].tolist() + [0.0], rhs[1:].tolist()):
            if abs(pivot) >= abs(low):
                f = low / pivot
                rows.append((pivot, up, 0.0, r))
                pivot, up, r = d_next - f * up, up_next, r_next - f * r
            else:  # swap rows i and i + 1
                f = pivot / low
                rows.append((low, d_next, up_next, r_next))
                pivot, up, r = up - f * d_next, -f * up_next, r - f * r_next
        s = [r / pivot]
        pivot, up, _, r = rows.pop()
        s.append((r - up * s[-1]) / pivot)
        for pivot, up, fill, r in reversed(rows):
            s.append((r - up * s[-1] - fill * s[-2]) / pivot)
        # the cubic through (x_i, y_i) with the slopes s_i at the nodes
        d = np.array(s[::-1])
        t = (d[:-1] + d[1:] - 2 * slope) / dx
        return cls(x, np.stack((t / dx, (slope - d[:-1]) / dx - t, d[:-1], y[:-1])))

    def __call__(self, w):
        """The value at each w in [x_0, x_n], shaped like w: in ascending powers
        of s = w - x_i, with s^2 and s^3 by repeated products, as scipy sums."""
        i = np.clip(np.searchsorted(self.x, w, side="right") - 1, 0, self.x.size - 2)
        # np.take gathers 5 times faster than c[:, i], and the gathered rows take
        # the products in place: on a kernel's 65537 bins, fresh temporaries
        # for each product took 4 times as long
        c = np.take(self.c, i, axis=1)
        s = w - np.take(self.x, i)
        s2 = s * s
        c[2] *= s
        c[1] *= s2
        s2 *= s
        c[0] *= s2
        out = c[3]
        out += c[2]
        out += c[1]
        out += c[0]
        return out

    def integral(self):
        """The exact integral from x_0 to x_n: each piece's primitive at its
        width in ascending powers, summed piece by piece in order."""
        h = np.diff(self.x)
        h2 = h * h
        h3 = h2 * h
        c = self.c
        pieces = c[3] * h + c[2] * h2 * 0.5 + c[1] * h3 * (1.0 / 3.0) + c[0] * (h3 * h) * 0.25
        return float(np.cumsum(pieces)[-1])


def fit_log_tail(grid, values):
    """(a, b, c) of (a + b ln w)/w^2 + c/w^3 fitted to the top decade of a sampled
    decay, by least squares of values * w^2 against 1, ln w and 1/w; zeros on
    fewer than 4 samples.  The c/w^3 term, Gamma_R's next order, cuts the
    error of a Lorentzian curve's integral a hundredfold."""
    mask = grid >= grid[-1] / 10.0
    if mask.sum() < 4:
        return 0.0, 0.0, 0.0
    w = grid[mask]
    basis = np.column_stack([np.ones(w.size), np.log(w), 1.0 / w])
    return tuple(float(x) for x in np.linalg.lstsq(basis, values[mask] * w**2, rcond=None)[0])


def tail_integral(tail, top):
    """int_top^inf ((a + b ln t)/t^2 + c/t^3) dt of the tail (a, b, c)."""
    a, b, c = tail
    return (a + b * (np.log(top) + 1.0) + 0.5 * c / top) / top


_TAIL_SERIES = 2.0 * np.arange(30) + 3.0  # 2k + 3: the terms fall below 4^-29 at |z| = 1/2
# the coefficients of S1, S2 and S3 in powers of z^2, one column each
_TAIL_TERMS = 1.0 / np.column_stack([_TAIL_SERIES, _TAIL_SERIES**2, _TAIL_SERIES + 1.0])


def tail_cauchy(tail, top, w):
    """int_top^inf ((a + b ln t)/t^2 + c/t^3) 2w/(t^2 - w^2) dt of the tail (a, b, c), like w.

    Each w lies off the real axis or inside (-top, top).  With z = w/top it is
    (2w/top^3) [(a + b ln top) S1 + b S2 + (c/top) S3], S1 = sum_k z^2k/(2k + 3)
    = (atanh z - z)/z^3, S2 = sum_k z^2k/(2k + 3)^2 = (chi_2(z) - z)/z^3, with
    Legendre's chi_2(z) = (Li_2(z) - Li_2(-z))/2, and S3 = sum_k z^2k/(2k + 4)
    = -(z^2 + log(1 - z^2))/(2 z^4): the sums for |z| <= 1/2, where the closed
    forms cancel, and the closed forms above.  Complex.
    """
    a, b, c = tail
    z = np.atleast_1d(np.asarray(w) / top).astype(complex)
    near, s = np.abs(z) <= 0.5, np.empty((3,) + z.shape, dtype=complex)
    s[:, near] = np.polynomial.polynomial.polyval(z[near] ** 2, _TAIL_TERMS)
    far = z[~near]
    if far.size:  # 1 -+ z as (top -+ w)/top: exact to rounding however near w is to top
        wf = np.atleast_1d(np.asarray(w)).astype(complex)[~near]
        below, above = (top - wf) / top, (top + wf) / top
        s[0, ~near] = (0.5 * np.log(above / below) - far) / far**3
        s[1, ~near] = (0.5 * (_dilog(far, below) - _dilog(-far, above)) - far) / far**3
        s[2, ~near] = -(far**2 + np.log(below * above)) / (2.0 * far**4)
    out = (2.0 * z / top**2) * ((a + b * np.log(top)) * s[0] + b * s[1] + (c / top) * s[2])
    return out.reshape(np.shape(w))


# B_2k/(2k + 1)! for k = 0..12, k = 0 aside: the odd terms of Li_2's Bernoulli series
_DILOG_SERIES = (0.0, 0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06,
                 -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
                 8.921691020456452e-13, -1.9939295860721074e-14, 4.518980029619918e-16,
                 -1.0356517612181247e-17, 2.395218621026187e-19, -5.581785874325009e-21)


def _dilog(z, zc):
    """Li_2(z) off the cut [1, inf), given zc = 1 - z: |z| > 1 goes to 1/z, by
    Li_2(z) = -Li_2(1/z) - pi^2/6 - log(-z)^2/2 (with 1 - 1/z = -zc/z), then
    Re z > 1/2 to zc, by Li_2(z) = -Li_2(zc) + pi^2/6 - log z log zc, which
    leaves |u| < 1.3 for the series Li_2 = u - u^2/4 + sum_k B_2k
    u^(2k+1)/(2k + 1)!, u = -log(1 - z)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.abs(z) > 1.0
        add_inv = np.where(inv, -np.pi**2 / 6.0 - 0.5 * np.log(-z) ** 2, 0.0)
        zc = np.where(inv, -zc / z, zc)
        z = np.where(inv, 1.0 / z, z)
        ref = z.real > 0.5
        add_ref = np.where(ref, np.pi**2 / 6.0 - np.log(z) * np.log(zc), 0.0)
        u = -np.log(1.0 - np.where(ref, zc, z))
    li = u * (1.0 - 0.25 * u + np.polynomial.polynomial.polyval(u * u, _DILOG_SERIES))
    li = add_ref + np.where(ref, -li, li)
    return add_inv + np.where(inv, -li, li)


_GL8 = np.polynomial.legendre.leggauss(8)
_PV_BLOCK = 1 << 16  # piece-node values a block of w holds at once


def cubic_cauchy(x, c, w):
    """sum_i int_{x_i}^{x_(i+1)} p_i(t)/(t - w) dt over cubic pieces, for a 1-d array of w.

    ``c[:, i]`` holds p_i in powers of t - x_i, highest first (a scipy
    PPoly's layout).  On a piece of width h, with b = w - x_i, it is exact
    where |b| < 4h: the quadratic q = (p(t) - p(b))/(t - b) of synthetic
    division plus p(b) log((h - b)/(-b)); elsewhere, with the pole at least
    3h away, 8-point Gauss-Legendre is at rounding.  A complex w lies on no
    piece.  A real w, on neither end x_0 nor x_n, gives the boundary value
    from above (Sokhotski-Plemelj), summed in real arithmetic: the principal
    value, with the log at log|(h - b)/b|, where on an inner knot the log 0s
    of the two adjacent pieces cancel and are left out (the symmetric
    limit), plus i pi times the pieces' value at w (0 beyond them).  The w
    go in blocks of _PV_BLOCK piece-node values, laid out node by node so
    that each block sums its 8 nodes over its leading axis.
    """
    h = np.diff(x)
    nodes, weights = _GL8
    t = 0.5 * h * (1.0 + nodes[:, None])  # node-major: one row of pieces per node
    p_t = ((c[0] * t + c[1]) * t + c[2]) * t + c[3]
    at_nodes = (0.5 * h * weights[:, None] * p_t)[:, None]
    t = (t + x[:-1])[:, None]
    on_axis = not np.iscomplexobj(w)
    out = np.empty(w.shape, dtype=float if on_axis else complex)
    step = max(1, _PV_BLOCK // t.size)
    for i in range(0, w.size, step):  # a block of w, one row of pieces each
        wb = w[i : i + step, None]
        terms = t - wb
        terms = np.divide(at_nodes, terms, out=terms).sum(axis=0)
        b = wb - x[:-1]
        row, j = np.nonzero(np.abs(b) < 4.0 * h)  # the pieces that take the exact rule
        b, hj, cj = b[row, j], h[j], c[:, j]
        q1 = cj[1] + b * cj[0]
        q0 = cj[2] + b * q1
        if on_axis:  # |h - b| and |b| read 1 where they vanish: on a knot the log 0s cancel
            num, den = np.abs(hj - b), np.abs(b)
            log = np.log(np.where(num == 0.0, 1.0, num) / np.where(den == 0.0, 1.0, den))
        else:
            log = np.log((hj - b) / -b)
        terms[row, j] = ((cj[0] * hj / 3.0 + q1 / 2.0) * hj + q0) * hj + (cj[3] + b * q0) * log
        out[i : i + step] = terms.sum(axis=-1)
    if not on_axis:
        return out
    k = np.clip(np.searchsorted(x, w, side="right") - 1, 0, h.size - 1)
    d = w - x[k]
    value = ((c[0, k] * d + c[1, k]) * d + c[2, k]) * d + c[3, k]
    return out + 1j * np.pi * np.where((x[0] <= w) & (w < x[-1]), value, 0.0)


def decay_slope(grid, values):
    """Log-log least-squares slope of the values, floored at 1e-300, over the top
    decade of the grid: -inf if they all vanish there, else FitError on fewer
    than 4 samples there."""
    top = grid >= grid[-1] / 10.0
    if not np.any(values[top]):
        return -np.inf
    if top.sum() < 4:
        raise FitError("fewer than 4 samples in the slope-fit window")
    return float(np.polyfit(np.log(grid[top]), np.log(np.clip(values[top], 1e-300, None)), 1)[0])


def secant_root(f, z0):
    """Secant iteration for an analytic complex function from a seed z0 != 0.

    Scale-free: the second point is z0 (1 + 1e-4), and the iteration stops
    once a step is below 1e-14 relative, at whichever end of that step has
    the smaller |f| (at the rounding floor the iterates can cycle with |f|
    growing after every small step), or on a degenerate update f1 == f0,
    where the rounding floor is reached, at the current iterate.  Returns
    (root, residual); the caller judges the residual.  Raises
    RootConvergenceError after 100 steps.
    """
    z1 = z0 * (1.0 + 1e-4)
    f0, f1 = f(z0), f(z1)
    for _ in range(100):
        if f1 == f0:
            return z1, abs(f1)
        z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
        z0, f0, z1 = z1, f1, z2
        f1 = f(z1)
        if abs(z1 - z0) <= 1e-14 * abs(z1):
            return (z1, abs(f1)) if abs(f1) <= abs(f0) else (z0, abs(f0))
    raise RootConvergenceError(
        f"secant did not converge in 100 iterations (last {z1}, |f|={abs(f1):.3e})"
    )


def fft_length(n):
    """The least even 2^a 3^b 5^c >= n, for n >= 1: an FFT length that costs about
    what a power of two does per point, with no doubling just past each 2^j."""
    best = max(2, 1 << (n - 1).bit_length())
    p5 = 1
    while 2 * p5 < best:
        p35 = p5
        while 2 * p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())  # p35 < n: even
            p35 *= 3
        p5 *= 5
    return best


def spectrum_to_kernel(spectrum, n, dt):
    """Inverse transform of rfft-layout frequency samples to a time kernel.

    ``spectrum[k]`` holds f[w_k] at w_k = 2 pi k / (n dt).  Output samples
    approximate f(t_j) under the physics sign convention (see module
    docstring); numpy's irfft uses the opposite exponent, hence the
    conjugate.
    """
    return np.fft.irfft(np.conj(spectrum), n=n) / dt
