"""Mirror scattering models.

A mirror is described by a complex reflectivity r[w] and transmissivity
s[w] on the real frequency axis.  Three models are supported:

* ``perfect``    -- r = -1, s = 0 at every frequency (no cutoff),
* ``lorentzian`` -- r[w] = -1 / (1 - i w / Omega), s = 1 + r,
* ``tabulated``  -- sampled (w, r, s), read between the nodes through the
  not-a-knot cubic spline of each part, the cubic every sampled curve uses.

Everything that differs between them answers the ``MirrorModel``
interface; callers ask the model, and ``kind`` is only the name written
to output documents; that includes each model's exact rule for the
cutoff factor Gamma.  Real-axis evaluations obey r[-w] = conj(r[w]) so
the time-domain kernels stay real.  Every model gives Gamma in Im w > 0 as
well: the Lorentzian continues analytically into Im w >= 0, the perfect
mirror is constant everywhere, and a table continues its sampled Gamma
curve by the Cauchy integral.  A table's r and s exist only at real
frequencies inside its range.

Models are immutable after construction and evaluation is pure, so they
can be shared freely across workers.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BranchCutError, ContinuationError, FitError, FrequencyRangeError
from .numerics import PiecewiseCubic, decay_slope, gauss_legendre


class MirrorModel:
    """What every mirror model answers: ``_r``, ``_s`` and ``_gamma`` (r, s and
    Gamma shaped like w, Gamma at real w and at Im w > 0), ``omega_range``
    (|w| where r, s exist), ``gamma_is_one`` (Gamma == 1, the local
    third-derivative regime), ``omega_scale`` (the frequency on which Gamma
    varies, which every default band is a constant times: Omega for a
    Lorentzian, for a table the power of ten nearest its first node above 0
    with |r|^2 <= 1/2, else 1), ``gamma_curve``, ``_cutoff`` and
    ``_axis_gamma`` (Gamma on the real axis as the walk and the weights read it:
    ``_gamma`` itself, the Lorentzian's in real arithmetic, but for a table)."""

    omega_range = (0.0, np.inf)
    gamma_is_one = False
    omega_scale = 1.0

    @property
    def _curve_top(self):
        """The default Gamma curve's top: 1e3 omega_scale, or the model's top below it."""
        return min(1.0e3 * self.omega_scale, self.omega_range[1])

    def _cutoff(self, top, full_output):
        """(omega_C, its share above ``top``, the top-decade slope of Gamma_R) in closed
        form, the last two None unless ``full_output``; or None: ``gamma_curve`` gives them."""
        return None

    def _axis_gamma(self, y):  # the exact rule
        return self._gamma(y)

    @cached_property
    def gamma_curve(self):
        """The ``sample_gamma_real`` curve, sampled on first use and kept, out
        of comparisons, with the model: the spectral integrals' Gamma_R, and
        the Gamma a table is continued from."""
        from .analysis import sample_gamma_real

        return sample_gamma_real(self)


@dataclass(frozen=True)
class PerfectMirror(MirrorModel):
    kind = "perfect"
    gamma_is_one = True

    def _r(self, w):
        return np.full(np.shape(w), -1.0 + 0.0j)

    def _s(self, w):
        return np.zeros(np.shape(w), dtype=complex)

    def _gamma(self, w):
        return np.ones(np.shape(w), dtype=complex)


@dataclass(frozen=True)
class LorentzianMirror(MirrorModel):
    omega_scale: float = 1.0
    kind = "lorentzian"

    def __post_init__(self):
        if self.omega_scale <= 0:
            raise ValueError("lorentzian scale must be positive")

    def _r(self, w):
        w = np.asarray(w, dtype=complex)
        if np.any(np.imag(w) < -1e-14 * np.maximum(1.0, np.abs(w))):
            raise ContinuationError("reflectivity continued only into Im w >= 0")
        return -1.0 / (1.0 - 1j * w / self.omega_scale)

    def _s(self, w):
        return 1.0 + self._r(w)

    def _gamma(self, w):
        return np.asarray(lorentzian_gamma(w, self.omega_scale))

    def _cutoff(self, top, full_output):
        """omega_C = 3 Omega, and its share above ``top`` exactly: in x = i w/Omega
        Gamma has the primitive G = -3/x - 3 (1 - x)^2 log(1 - x)/x^2, with
        G(0) = -9/2, so int_0^top Gamma_R dw = Omega Im G(i top/Omega).  At
        top >> Omega the share tends to 4 Omega ln(top/Omega)/(pi top), the
        integral of the asymptote Gamma_R ~ 6 Omega^2 (ln(w/Omega) - 1)/w^2.
        The slope is fitted to the closed form on the top decade."""
        if not full_output:
            return 3.0 * self.omega_scale, None, None
        inv = self.omega_scale / (1j * top)  # 1/x
        primitive = -3.0 * inv - 3.0 * (1.0 - inv) ** 2 * np.log(1.0 - 1.0 / inv)
        probe = np.geomspace(top / 10.0, top, 48)
        return (3.0 * self.omega_scale, 1.0 - 2.0 * primitive.imag / (3.0 * np.pi),
                decay_slope(probe, lorentzian_gamma(probe, self.omega_scale).real))


@dataclass(frozen=True)
class TabulatedMirror(MirrorModel):
    table: tuple  # (w, r, s) arrays
    _cubics: np.ndarray = field(default=None, repr=False, compare=False)
    kind = "tabulated"

    def __post_init__(self):
        w, r, s = self.table
        w = np.asarray(w, dtype=float)
        if w.ndim != 1 or w.size < 4:
            raise ValueError("table needs at least 4 samples")
        if not all(np.all(np.isfinite(part)) for part in (w, r, s)):
            raise ValueError("table entries must be finite")
        if np.any(np.diff(w) <= 0) or w[0] < 0:
            raise ValueError("table grid must be nonnegative and strictly increasing")
        # the not-a-knot splines of r and of s on each table interval, in powers
        # of (w - w_i), fitted as the four columns of one: shape (4, 2, intervals)
        parts = np.stack((np.real(r), np.imag(r), np.real(s), np.imag(s)), axis=-1)
        c = PiecewiseCubic.not_a_knot(w, parts).c
        object.__setattr__(self, "_cubics", np.stack([c[..., 0] + 1j * c[..., 1],
                                                      c[..., 2] + 1j * c[..., 3]], 1))

    @property
    def omega_range(self):
        w = self.table[0]
        return float(w[0]), float(w[-1])

    @cached_property
    def omega_scale(self):
        half = self.table[0][(self.table[0] > 0.0) & (np.abs(self.table[1]) ** 2 <= 0.5)]
        return 10.0 ** round(np.log10(half[0])) if half.size else 1.0

    def _r(self, w):
        return self._eval(w, 0)

    def _s(self, w):
        return self._eval(w, 1)

    def _eval(self, w, part):
        w = np.asarray(w)
        if np.iscomplexobj(w) and np.any(np.abs(np.imag(w)) > 0):
            raise ContinuationError("tabulated models support only real frequencies")
        wr = np.real(w).astype(float)
        lo, hi = self.omega_range
        aw = np.abs(wr)
        if np.any(aw < lo) or np.any(aw > hi):
            raise FrequencyRangeError(f"frequency magnitude outside table range [{lo}, {hi}]")
        out = self._pieces(aw, aw)[part, 0]  # r or s, one node per piece
        # reality of the time-domain kernel: f(-w) = conj(f(w))
        return np.where(wr >= 0, out, np.conj(out))

    def _gamma(self, w):
        """Gamma at real w, exact up to rounding, with Gamma[0] = r[0]^2; at
        complex w (each with Im w > 0) the Cauchy continuation of
        ``gamma_curve``.

        Between consecutive points of {w_i} and {|w| - w_j} the integrand
        3 x (|w| - x) alpha(|w| - x, x) is a polynomial of degree at most 8
        in x, so the five-node Gauss-Legendre rule on each such piece is exact.
        """
        if np.iscomplexobj(w):
            from .dispersion import continue_upper_half

            return np.asarray(continue_upper_half(self.gamma_curve, w))
        w = np.asarray(w, dtype=float)
        aw = np.abs(w)
        lo, hi = self.omega_range
        if lo > 0.0 or np.any(aw > hi):
            raise FrequencyRangeError(f"Gamma needs r, s on [0, |w|]; the table has [{lo}, {hi}]")
        out = np.empty(w.shape, dtype=complex)
        for i, x in np.ndenumerate(aw):
            out[i] = self._gamma_at(float(x))
        return np.where(w >= 0, out, np.conj(out))

    def _axis_gamma(self, y):
        """Gamma at each real y > 0 from ``gamma_curve`` (the exact rule costs about
        a millisecond a frequency): the curve to its top, its tail's axis value above."""
        curve, top = self.gamma_curve, self.gamma_curve.grid[-1]
        above = curve.tail.axis(np.maximum(y, top), curve.real_integral,
                                curve._real_spline.second_moment)
        return np.where(y <= top, curve(np.minimum(y, top)), above)

    def _gamma_at(self, w):
        """Gamma[w] for one w >= 0, in units of w (u = x / w, so that no
        subnormal w loses precision): alpha(w - x, x) is symmetric in
        x <-> w - x, so the integral over u in [0, 1/2] is doubled."""
        if w == 0.0:
            return complex(self._r(0.0)) ** 2
        t = self.table[0]
        tu = t[(t > 0.0) & (t < w)] / w
        cuts = np.unique(np.concatenate([[0.0, 0.5], tu[tu < 0.5], 1.0 - tu[tu > 0.5]]))
        mid = 0.5 * (cuts[1:] + cuts[:-1])
        rad = 0.5 * (cuts[1:] - cuts[:-1])
        nodes, weights = gauss_legendre(5)
        u = mid + rad * nodes[:, None]
        r_x, s_x = self._pieces(w * mid, w * u)
        r_y, s_y = self._pieces(w * (1.0 - mid), w * (1.0 - u))
        f = u * (1.0 - u) * (1.0 + r_y * r_x - s_y * s_x)
        return complex(6.0 * (weights @ f @ rad))

    def _pieces(self, inside, x):
        """r and s at x (one column of nodes per piece), each column on the
        table interval that holds its entry of ``inside``."""
        t = self.table[0]
        i = np.clip(np.searchsorted(t, inside, side="right") - 1, 0, t.size - 2)
        c = np.take(self._cubics, i, axis=2)
        dx = x - t[i]
        out = c[0][:, None] * dx + c[1][:, None]  # Horner, in place
        out *= dx
        out += c[2][:, None]
        out *= dx
        out += c[3][:, None]
        return out


def perfect_mirror():
    return PerfectMirror()


def lorentzian_mirror(omega_scale=1.0):
    return LorentzianMirror(omega_scale=omega_scale)


def tabulated_mirror(w, r, s):
    table = (np.asarray(w, dtype=float), np.asarray(r, dtype=complex), np.asarray(s, dtype=complex))
    return TabulatedMirror(table=table)


def load_table(path):
    """Read a 5-column whitespace table: w, Re r, Im r, Re s, Im s."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] != 5:
        raise ValueError(f"{path}: expected 5 columns, got {data.shape[1]}")
    # each (Re, Im) column pair viewed as one complex column: inf * 1j would make a nan
    return tabulated_mirror(data[:, 0], *np.ascontiguousarray(data[:, 1:]).view(complex).T)


def save_table(path, w, r, s):
    data = np.column_stack([w, np.real(r), np.imag(r), np.real(s), np.imag(s)])
    np.savetxt(path, data, fmt="%.15e", header="omega re_r im_r re_s im_s")


def reflectivity(model, w):
    """Reflection amplitude r[w], scalar or array, under the model's domain rules."""
    out = model._r(w)
    return out if out.ndim else complex(out)


def transmissivity(model, w):
    """Transmission amplitude s[w]; same domain rules as reflectivity."""
    out = model._s(w)
    return out if out.ndim else complex(out)


# 6/((n + 2)(n + 3)), n = 0..49: Gamma's series in x = i w/Omega, whose terms 28 and
# 50 are below 1e-19 at |x| = 1/4 and 2e-18 at 1/2; the first is 1.0, so Gamma[0] = 1
_LORENTZIAN_SERIES = 6.0 / ((np.arange(50) + 2.0) * (np.arange(50) + 3.0))


def lorentzian_gamma(w, omega_scale=1.0):
    """Closed-form Gamma for the single-pole reflectivity model.

    Valid for real w and for complex w away from the logarithmic cut,
    which lies on the negative imaginary axis below -i*omega_scale.  In
    x = i w/Omega it is -6 (-x + x^2/2 - (1 - x) log(1 - x))/x^3; below |x|
    = 1/2, where that cancels, the series sum_n 6 x^n/((n+2)(n+3)) to n = 49
    by Horner, 1 at w = 0.  A real w is summed in real arithmetic, below |s| =
    1/4 the series to n = 27 as its even and odd parts in -s^2, s = w/Omega,
    and above Gamma = 6 (b/t^3 - (1 - a)/t^2) + 6 i (1/(2 t) + a/t^3 - b/t^2)
    at t = |s|, b = arctan t and a = log sqrt(1 + t^2), taken as log max(t, 1)
    + log1p(min(t, 1/t)^2)/2 so that no t^2 overflows, conjugated for w < 0.
    """
    w = np.asarray(w)
    if not np.iscomplexobj(w):
        s = w / omega_scale
        t = np.maximum(np.abs(s), 0.25)
        a = np.log(np.maximum(t, 1.0)) + 0.5 * np.log1p(np.minimum(t, 1.0 / t) ** 2)
        b = np.arctan(t)
        out = np.empty(s.shape, dtype=complex)
        out.real = 6.0 * ((b / t - (1.0 - a)) / t) / t
        out.imag = np.copysign(6.0 * (0.5 + (a / t - b) / t) / t, s)
        small = np.abs(s) < 0.25
        if small.any():
            s = s[small]
            u = -s * s
            even, odd = _LORENTZIAN_SERIES[26], _LORENTZIAN_SERIES[27]
            for k in range(25, 0, -2):
                even = even * u + _LORENTZIAN_SERIES[k - 1]
                odd = odd * u + _LORENTZIAN_SERIES[k]
            out.real[small], out.imag[small] = even, s * odd
        return out if out.ndim else complex(out)
    x = 1j * w / omega_scale
    arg = 1.0 - x
    if np.any((np.abs(np.imag(arg)) < 1e-14) & (np.real(arg) < 1e-12)):
        raise BranchCutError("1 - i w / Omega on the logarithm branch cut")
    out = np.empty_like(x)
    small = np.abs(x) < 0.5
    if small.any():
        xs = x[small]
        acc = _LORENTZIAN_SERIES[-1]
        for coefficient in _LORENTZIAN_SERIES[-2::-1]:
            acc = acc * xs + coefficient
        out[small] = acc
    if (~small).any():
        # -6 (-x + x^2/2 - (1 - x) log(1 - x)) / x^3, with no power of x
        # beyond its square, which could overflow
        xl = x[~small]
        inv = 1.0 / xl
        out[~small] = -6.0 * (inv * (0.5 - inv) - (inv - 1.0) * inv * inv * np.log(1.0 - xl))
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class ModelValidation:
    """Defect report from validate_model; thresholds are the caller's.  The
    slope and the cutoff verdict are None where the slope is unknown."""

    unitarity_defect: float
    transparency_tail: float
    transparency_slope: float | None
    causality_defect: float
    has_cutoff: bool | None


def validate_model(model, grid):
    """Check unitarity, transparency and causality of a model on a grid.

    Reports the worst | |r|^2 + |s|^2 - 1 |, the largest |r| over the top
    decade of the grid (with its decay slope, -inf where |r| vanishes
    there, None where that decade holds fewer than 4 samples), and the
    residual of a Kramers-Kronig reconstruction of Im r from Re r: one
    ``kk_reconstruct`` call for all interior probes, against Im r
    interpolated linearly.
    Nothing is raised; defects are numbers for the caller to judge.
    """
    from .dispersion import kk_reconstruct
    from .susceptibility import ResponseCurve

    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ValueError("validation grid must be nonempty, positive, increasing")
    r = np.atleast_1d(reflectivity(model, grid))
    s = np.atleast_1d(transmissivity(model, grid))
    unitarity = float(np.max(np.abs(np.abs(r) ** 2 + np.abs(s) ** 2 - 1.0)))

    top = grid >= grid[-1] / 10.0
    tail = float(np.max(np.abs(r[top])))
    try:
        slope = decay_slope(grid, np.abs(r))
    except FitError:  # fewer than 4 samples in the top decade: no slope to judge by
        slope = None
    # |r| must die at least like 1/w for the cutoff integrals to exist
    has_cutoff = None if slope is None else tail < 0.5 and slope < -0.9

    interior = grid[(grid > grid[0] * 4) & (grid < grid[-1] / 4)]
    probes = interior[:: max(1, interior.size // 64)]
    causality = np.inf
    if probes.size:
        rec = kk_reconstruct(ResponseCurve(grid, r), probes)
        causality = float(np.max(np.abs(rec.imag - np.interp(probes, grid, np.imag(r)))))

    return ModelValidation(
        unitarity_defect=unitarity,
        transparency_tail=tail,
        transparency_slope=slope,
        causality_defect=causality,
        has_cutoff=has_cutoff,
    )
