"""Shared numerical routines.

Everything here is stateless, and pure but for the CSV and JSON writers: adaptive
Gauss-Legendre quadrature (a test oracle), the running trapezoid integral,
the piecewise cubic that every sampled curve and table is read as (the
not-a-knot spline, scipy's arithmetic to the bit), the exact Cauchy integral
of piecewise cubics, off the real axis and as its boundary value from above
on it (the principal value plus the residue, which the dispersion checks
read), the (a + b ln w)/w^2 + c/w^3 tail that closes a sampled curve
(``LogTail``: its fit, its integral and Cauchy sum in closed form, and a
Gamma curve's value on the real axis above its top), a complex secant root
finder and the FFT length rule; only NumPy is imported, and no command
loads numpy.polynomial: the Gauss-Legendre rules it reads are literals and
the tail's series a local Horner loop.  The CSV writer
prints every value as %.11e with NumPy, byte for byte what Python's
formatting prints: 12 digits from one rounded product with a tabulated
power of ten, which rounds like the exact product unless it lies next to a
rounding tie, and Python formats those alone (see write_csv_files).  The
transform helper fixes the package convention

    f(t) = (1/2pi) * integral dw f[w] exp(-i w t)

which is the opposite sign to numpy's FFT, hence the conjugation below.
"""

import json
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import AccuracyError, FitError, RootConvergenceError


# the rules production reads, (nodes, weights), as numpy's leggauss gives them to the bit
_GAUSS_LEGENDRE = {
    3: ((-0.7745966692414834, 0.0, 0.7745966692414834),
        (0.5555555555555557, 0.8888888888888888, 0.5555555555555557)),
    5: ((-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664),
        (0.23692688505618928, 0.4786286704993663, 0.5688888888888887, 0.4786286704993663,
         0.23692688505618928)),
    8: ((-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
         0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362),
        (0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
         0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706)),
}


@cache
def gauss_legendre(n):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    The 3-, 5- and 8-point rules (the second moment, a table's exact Gamma
    rule and the Cauchy sums) are literals, numpy's leggauss to the bit, so
    that no command imports numpy.polynomial or runs an eigensolver; any
    other n (the oracle's 15 and 30) is built by leggauss on first use.
    """
    if n in _GAUSS_LEGENDRE:
        nodes, weights = map(np.array, _GAUSS_LEGENDRE[n])
    else:
        nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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
    x_lo, w_lo = gauss_legendre(15)
    x_hi, w_hi = gauss_legendre(30)
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
    <= _K_MAX; the head of a value, its sign byte (NUL or '-'), lead digit,
    '.' and next three digits, for each sign s and 0 <= i < 10^4 at s 10^4 +
    i as one 8-byte word; the four ASCII digits of each 0 <= i < 10^4 as one
    word; and the tail of each decade |e| <= _E_MAX as one 8-byte word: two
    bytes to be written over, 'e', the exponent field (sign, hundreds digit
    or NUL below 100, two digits) and the separator ','."""
    scales = np.array([float(f"1e{k}") for k in range(_K_MIN, _K_MAX + 1)])
    digits = 48 + np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    heads = np.zeros((2, 10000, 8), dtype=np.uint8)
    heads[1, :, 0] = ord("-")
    heads[:, :, 1] = digits[:, 0]
    heads[:, :, 2] = ord(".")
    heads[:, :, 3:6] = digits[:, 1:]
    tails = np.zeros((2 * _E_MAX + 1, 8), dtype=np.uint8)
    tails[:, 2] = ord("e")
    tails[:, 3:7] = np.frombuffer(b"".join(b"%+04d" % e for e in range(-_E_MAX, _E_MAX + 1)),
                                  dtype=np.uint8).reshape(-1, 4)
    tails[np.abs(np.arange(-_E_MAX, _E_MAX + 1)) < 100, 4] = 0
    tails[:, 7] = ord(",")
    return (scales, heads.view("=u8").ravel(), digits.astype(np.uint8).view("=u4")[:, 0],
            tails.view("=u8").ravel())


def _format_fallback(values):
    """The values the fast path leaves, each formatted by Python."""
    return [b"%.11e" % v for v in values]


def _format_block(x):
    """The %.11e bytes of the values x in (x.size, _SLOT) slots: 'e' at 14,
    ',' at the end, and NUL for the bytes a value does not print."""
    slots = np.empty((x.size, _SLOT), dtype=np.uint8)
    scales, heads, digits4, tails = _csv_tables()
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
    e += carry

    head = digits // 10**8
    rest = digits - head * 10**8
    mid = rest // 10**4
    head += np.signbit(x) * 10**4
    # each word before the one that writes over its first or last two bytes;
    # a slow value's decade can lie one past the table, and the fallback
    # writes over what the clipped gather puts there
    slots[:, 12:].view("=u8")[:, 0] = np.take(tails, e + _E_MAX, mode="clip")
    slots[:, :8].view("=u8")[:, 0] = heads[head]
    slots[:, 6:10].view("=u4")[:, 0] = digits4[mid]
    slots[:, 10:14].view("=u4")[:, 0] = digits4[rest - mid * 10**4]

    slow = np.flatnonzero(~fast)  # nan, +-inf, values below _TINY and near ties
    if slow.size:
        width = _SLOT - 1  # each text NUL-padded to the separator
        text = np.array(_format_fallback(x[slow].tolist()), dtype=f"S{width}")
        slots[slow, :width] = text.view(np.uint8).reshape(-1, width)
    return slots


def write_csv_files(files):
    """Write each (path, header, columns) of ``files`` in one pass: real columns
    of one length in every file (else none is opened) under a header line,
    every value as %.11e.

    The bytes are those of np.savetxt(fmt="%.11e", delimiter=",").  A
    finite nonzero x with decade e prints the 12 digits D = rint(y), y =
    |x| * 10^(11 - e), carried into the next decade when D reaches 10^12.
    y is taken as the one rounded product p = |x| * fl(10^(11 - e)), within
    _TIE_MARGIN (2^-12) of it, so rint(p) is exact wherever p lies farther
    than that from a half-integer.  Those near ties, nan, +-inf and the
    values below _TINY are the one fallback: each is formatted alone by
    Python into the same slot.  Every slot is written in full, a few bytes
    at a time, with NUL for the bytes a value does not print.  Rows go in
    blocks of about _CSV_BLOCK values, so the memory held stays bounded; a
    column several files hold is formatted once, each file gathers its slots
    from there into a bytearray that one translate compacts in place of a
    copy, and every column is held to the end, so no two distinct arrays can
    share a data address.
    """
    columns, index, tables = [], {}, []
    for path, header, cols in files:
        cols = [np.asarray(c, dtype=np.float64) for c in cols]
        if len({c.shape for c in cols + columns[:1]}) != 1 or cols[0].ndim != 1:
            raise ValueError(f"{path}: the columns must be 1-d arrays of one length in every file")
        take = [index.setdefault((c.__array_interface__["data"][0], c.strides), len(index))
                for c in cols]
        for j, c in zip(take, cols):
            if j == len(columns):
                columns.append(c)
        tables.append((path, header, take))
    rows = max(1, _CSV_BLOCK // len(columns))
    with ExitStack() as stack:
        handles = []
        for path, header, take in tables:
            handles.append((stack.enter_context(open(path, "wb")), take))
            handles[-1][0].write(header.encode("latin-1") + b"\n")
        for start in range(0, columns[0].size, rows):
            x = np.column_stack([c[start : start + rows] for c in columns])
            slots = _format_block(x.ravel()).reshape(*x.shape, _SLOT)
            for fh, take in handles:
                text = bytearray(len(x) * len(take) * _SLOT)
                block = np.frombuffer(text, dtype=np.uint8).reshape(len(x), len(take), _SLOT)
                # the default mode "raise" would gather into a buffer and copy it
                np.take(slots, take, axis=1, out=block, mode="clip")
                block[:, -1, -1] = ord("\n")
                fh.write(text.translate(None, b"\0"))


def json_num(x):
    """x as a JSON number: null where it is None or not finite."""
    return None if x is None or not np.isfinite(x) else float(x)


def write_json(path, doc):
    """``doc`` as JSON text indented by 2 with a closing newline, written to ``path``
    unless that is None; a NaN or an infinity raises ValueError."""
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


@dataclass(frozen=True)
class PiecewiseCubic:
    """A C^1 piecewise cubic on breakpoints x: ``c[:, i]`` holds its piece on
    [x_i, x_(i+1)] in powers of w - x_i, highest first (a scipy PPoly's
    layout, which ``cubic_cauchy`` reads), with any trailing axes of ``c``
    its columns, one cubic each on the same breakpoints.  ``not_a_knot``
    fits it to samples y at x, one column at a time: the interpolating cubic
    spline of de Boor (A Practical Guide to Splines, 1978), in the order of
    arithmetic of scipy's CubicSpline, so that each column's coefficients,
    values and integral are scipy's to the bit.
    """

    x: np.ndarray
    c: np.ndarray

    @classmethod
    def not_a_knot(cls, x, y):
        """The cubic spline through real samples y at increasing x, at least 3,
        with a continuous third derivative at x_1 and x_(n-2); with 3 samples,
        the parabola through them; y's trailing axes are columns, each fitted
        bitwise as alone.  A column's node slopes solve one tridiagonal
        system, its matrix and right-hand side eliminated together in one
        sweep with partial pivoting, step for step LAPACK's gtsv, which scipy
        calls: a row is swapped with the next where that one's subdiagonal
        entry outgrows the pivot (only on strongly graded grids, as every
        inner row dominates its diagonal), and the swap fills in one entry
        right of the superdiagonal."""
        n = x.size
        if n < 3:
            raise ValueError("a not-a-knot spline needs at least 3 samples")
        dx = np.diff(x)
        h = dx.reshape((-1,) + (1,) * (y.ndim - 1))  # dx against y's columns
        slope = np.diff(y, axis=0) / h
        diag, upper, lower, rhs = np.empty(n), np.empty(n - 1), np.empty(n - 1), np.empty(y.shape)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:] = dx[:-1]
        lower[:-1] = dx[1:]
        rhs[1:-1] = 3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
        if n == 3:  # one condition for both ends: s_i + s_(i+1) = 2 slope_i
            diag[[0, -1]] = upper[0] = lower[-1] = 1.0
            rhs[[0, -1]] = 2 * slope
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            diag[0], upper[0], diag[-1], lower[-1] = dx[1], d0, dx[-2], d1
            rhs[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
            rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        # each column forward and back: row i as eliminated so far is (pivot,
        # up, r); each finished row goes to ``rows`` as (pivot, up, fill, r)
        # for the back substitution to its node slopes d
        d = np.empty(y.shape)
        diag, upper, lower = diag.tolist(), upper.tolist() + [0.0], lower.tolist()
        for column, slopes in zip(rhs.reshape(n, -1).T, d.reshape(n, -1).T):
            column = column.tolist()
            pivot, up, r = diag[0], upper[0], column[0]
            rows = []
            for low, d_next, up_next, r_next in zip(lower, diag[1:], upper[1:], column[1:]):
                if abs(pivot) >= abs(low):
                    f = low / pivot
                    rows.append((pivot, up, 0.0, r))
                    pivot, up, r = d_next - f * up, up_next, r_next - f * r
                else:  # swap rows i and i + 1
                    f = pivot / low
                    rows.append((low, d_next, up_next, r_next))
                    pivot, up, r = up - f * d_next, -f * up_next, r - f * r_next
            s = [0.0, r / pivot]  # 0.0 pads past the end: the last finished row has fill 0
            for pivot, up, fill, r in reversed(rows):
                s.append((r - up * s[-1] - fill * s[-2]) / pivot)
            slopes[:] = s[:0:-1]
        # the cubic through (x_i, y_i) with the slopes d_i at the nodes
        t = (d[:-1] + d[1:] - 2 * slope) / h
        return cls(x, np.stack((t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1])))

    def __call__(self, w, out=None):
        """The value at each w in [x_0, x_n], shaped like w and then the columns,
        written to ``out`` if given: in ascending powers of s = w - x_i, with
        s^2 and s^3 by repeated products, as scipy sums.  The pieces and the
        powers of s are found once for all columns, which are then summed one
        at a time."""
        i = np.clip(np.searchsorted(self.x, w, side="right") - 1, 0, self.x.size - 2)
        s = w - np.take(self.x, i)
        s2 = s * s
        s3 = s2 * s
        if out is None:
            out = np.empty(np.shape(w) + self.c.shape[2:])
        # np.take gathers 5 times faster than c[:, i], into one buffer that each
        # column reuses (mode "clip" writes there directly; i is in range), and
        # the gathered rows take the products in place: on a kernel's 65537
        # bins, fresh temporaries for each product took 4 times as long
        c = np.empty((4,) + np.shape(w))
        for column in np.ndindex(self.c.shape[2:]):
            np.take(self.c[(slice(None), slice(None)) + column], i, axis=1, out=c, mode="clip")
            c[2] *= s
            c[1] *= s2
            c[0] *= s3
            value = out[(...,) + column]
            np.add(c[3], c[2], out=value)
            value += c[1]
            value += c[0]
        return out if out.ndim else out[()]

    def integral(self):
        """The exact integral from x_0 to x_n of a one-column cubic: each piece's
        primitive at its width in ascending powers, summed piece by piece in
        order."""
        h = np.diff(self.x)
        h2 = h * h
        h3 = h2 * h
        c = self.c
        pieces = c[3] * h + c[2] * h2 * 0.5 + c[1] * h3 * (1.0 / 3.0) + c[0] * (h3 * h) * 0.25
        return float(np.cumsum(pieces)[-1])

    @cached_property
    def second_moment(self):
        """int w^2 p(w) dw of a one-column cubic p over [x_0, x_n], kept: exact by
        3-point Gauss-Legendre on each piece, as w^2 p is a quintic there."""
        nodes, weights = gauss_legendre(3)
        half = 0.5 * np.diff(self.x)
        t = (self.x[:-1] + half)[:, None] + half[:, None] * nodes
        return float(np.sum(half * ((t * t * self(t)) @ weights)))


_TAIL_SERIES = 2.0 * np.arange(30) + 3.0  # 2k + 3: the terms fall below 4^-29 at |z| = 1/2
# the coefficients of S1, S2 and S3 in powers of z^2, one column each
_TAIL_TERMS = 1.0 / np.column_stack([_TAIL_SERIES, _TAIL_SERIES**2, _TAIL_SERIES + 1.0])


def _polyval(x, c):
    """sum_k c[k] x^k for an array x, c's trailing axes columns (each summed against
    all of x): np.polynomial.polynomial.polyval's Horner in its order of arithmetic,
    c[-1] + 0 x and then c[k] + acc x, so bitwise its values."""
    c = c.reshape(c.shape + (1,) * x.ndim)
    acc = c[-1] + x * 0
    for coefficient in c[-2::-1]:
        acc = coefficient + acc * x
    return acc


def _log_fit(w, y):
    """Least-squares coefficients of y (real or complex) on 1, ln w and 1/w."""
    basis = np.column_stack([np.ones(w.size), np.log(w), 1.0 / w])
    return np.linalg.lstsq(basis, y, rcond=None)[0]


@dataclass(frozen=True)
class LogTail:
    """The decay (a + b ln w)/w^2 + c/w^3 closing a sampled curve's real part past its
    top; the c/w^3 term cuts the error of a Lorentzian curve's integral a hundredfold."""

    a: float
    b: float
    c: float
    top: float

    @classmethod
    def fit(cls, grid, values):
        """The tail fitted to the top decade of a sampled decay, by least squares
        of values * w^2 against 1, ln w and 1/w; zeros on fewer than 4 samples."""
        w = grid[grid >= grid[-1] / 10.0]  # the top decade, the last w.size samples
        if w.size < 4:
            return cls(0.0, 0.0, 0.0, float(grid[-1]))
        fit = _log_fit(w, values[-w.size :] * w**2)
        return cls(*map(float, fit), float(grid[-1]))

    def integral(self):
        """int_top^inf ((a + b ln t)/t^2 + c/t^3) dt."""
        return (self.a + self.b * (np.log(self.top) + 1.0) + 0.5 * self.c / self.top) / self.top

    def cauchy(self, w):
        """int_top^inf ((a + b ln t)/t^2 + c/t^3) 2w/(t^2 - w^2) dt, like w.

        Each w lies off the real axis or inside (-top, top).  With z = w/top it is
        (2w/top^3) [(a + b ln top) S1 + b S2 + (c/top) S3], S1 = sum_k z^2k/(2k + 3)
        = (atanh z - z)/z^3, S2 = sum_k z^2k/(2k + 3)^2 = (chi_2(z) - z)/z^3, with
        Legendre's chi_2(z) = (Li_2(z) - Li_2(-z))/2, and S3 = sum_k z^2k/(2k + 4)
        = -(z^2 + log(1 - z^2))/(2 z^4): the sums for |z| <= 1/2, where the closed
        forms cancel, and the closed forms above.  Complex."""
        a, b, c, top = self.a, self.b, self.c, self.top
        z = np.atleast_1d(np.asarray(w) / top).astype(complex)
        near, s = np.abs(z) <= 0.5, np.empty((3,) + z.shape, dtype=complex)
        s[:, near] = _polyval(z[near] ** 2, _TAIL_TERMS)
        far = z[~near]
        if far.size:  # 1 -+ z as (top -+ w)/top: exact to rounding however near w is to top
            wf = np.atleast_1d(np.asarray(w)).astype(complex)[~near]
            below, above = (top - wf) / top, (top + wf) / top
            s[0, ~near] = (0.5 * np.log(above / below) - far) / far**3
            s[1, ~near] = (0.5 * (_dilog(far, below) - _dilog(-far, above)) - far) / far**3
            s[2, ~near] = -(far**2 + np.log(below * above)) / (2.0 * far**4)
        out = (2.0 * z / top**2) * ((a + b * np.log(top)) * s[0] + b * s[1] + (c / top) * s[2])
        return out.reshape(np.shape(w))

    def axis(self, y, total, moment):
        """Gamma at real y > top on a Gamma curve with int_0^inf Gamma_R = ``total`` and
        int_0^top w^2 Gamma_R = ``moment``: the tail, and as Gamma_I the Cauchy integral's
        boundary value to y^-3, (2/(pi y)) total - pi b/(2 y^2) + (2/(pi y^3)) [moment
        - top (a + b ln top - b) + c ln(y/top)]."""
        a, b, c, top = self.a, self.b, self.c, self.top
        log, inv = np.log(y), 1.0 / y
        third = moment - top * (a + b * np.log(top) - b) + c * (log - np.log(top))
        imag = (2.0 / np.pi) * (total + third * inv * inv) - 0.5 * np.pi * b * inv
        return (a + b * log + c * inv) * inv * inv + 1j * imag * inv


# B_2k/(2k + 1)! for k = 0..12, k = 0 aside: the odd terms of Li_2's Bernoulli series
_DILOG_SERIES = np.array([0.0, 0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06,
                          -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
                          8.921691020456452e-13, -1.9939295860721074e-14, 4.518980029619918e-16,
                          -1.0356517612181247e-17, 2.395218621026187e-19, -5.581785874325009e-21])


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
    li = u * (1.0 - 0.25 * u + _polyval(u * u, _DILOG_SERIES))
    li = add_ref + np.where(ref, -li, li)
    return add_inv + np.where(inv, -li, li)


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
    nodes, weights = gauss_legendre(8)
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
    than 4 samples there.  The slope is sum(X Y)/sum(X^2) in the centered logs X
    and Y, the normal equations' closed form."""
    top = grid >= grid[-1] / 10.0
    if not np.any(values[top]):
        return -np.inf
    if top.sum() < 4:
        raise FitError("fewer than 4 samples in the slope-fit window")
    x, y = np.log(grid[top]), np.log(np.clip(values[top], 1e-300, None))
    x -= x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


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


@cache
def fft_length(n):
    """The least even 2^a 3^b 5^c >= n, for n >= 1: an FFT length that costs about
    what a power of two does per point, with no doubling just past each 2^j.  Kept
    per n: a memory run's solve asks for one at each of its nodes."""
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
