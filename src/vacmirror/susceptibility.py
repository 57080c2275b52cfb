"""Motional susceptibility of a scattering mirror.

The mean vacuum radiation-pressure force linear in the mirror displacement
is chi[w] q[w] with

    chi[w] = i m tau w^3 Gamma[w]

where Gamma is a dimensionless cutoff factor built from the scattering
amplitudes by a finite-band integral over pair frequencies,

    w^3 Gamma[w] = int_0^w 3 dw' (w - w') w' alpha[w - w', w'],
    alpha[w, w'] = 1 - s[w] s[w'] + r[w] r[w'].

Gamma == 1 for the perfect mirror, so chi reduces to the local
third-derivative force, the single-pole mirror has a closed form, and a
tabulated mirror's integrand is a polynomial between merged breakpoints,
which Gauss-Legendre pieces integrate exactly.  ``gamma_samples`` is the
one place that evaluates Gamma, at real w and in Im w > 0, and it asks
the model.  ``gamma`` evaluates the integral by adaptive Gauss-Legendre
on the unit interval (the endpoint weight (w - w') w' vanishes at both
ends); it is the reference the model rules are tested against, and the
Gamma[0] = r[0]^2 limit.  The reflection cutoff omega_C is each model's
own: 3 Omega in closed form for the Lorentzian, else (2/pi) times the
exact integral of the model's Gamma curve, cubic piece by piece, closed by
the curve's (a + b ln w)/w^2 + c/w^3 tail.

All functions are pure.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CutoffDivergenceError, FrequencyRangeError
from .numerics import LogTail, PiecewiseCubic, adaptive_gauss_legendre, decay_slope
from .scattering import reflectivity, transmissivity


@dataclass(frozen=True)
class MirrorMechanics:
    """Suspension parameters: mass m, spring constant k, coupling time tau.

    k = m w0^2 (w0 = 0 for a free mass).  tau is the vacuum coupling time;
    tau = 0 is the decoupled limit used by reduction tests.
    """

    m: float = 1.0
    k: float = 0.0
    tau: float = 1e-3

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.k < 0:
            raise ValueError("spring constant must be nonnegative")
        if self.tau < 0:
            raise ValueError("coupling time must be nonnegative")

    @property
    def omega0(self):
        return np.sqrt(self.k / self.m)


@dataclass(frozen=True)
class ResponseCurve:
    """Complex response samples on a nonnegative frequency grid.

    Negative frequencies follow from the Hermitian-real parity
    f[-w] = conj(f[w]); `__call__` applies it transparently through one
    not-a-knot cubic spline (``PiecewiseCubic``) of both parts, its columns
    the real and the imaginary part, built on first use and kept; each part
    is summed straight into the complex result.  The Cauchy sums and the
    integral read `_real_spline`, the real part fitted alone on first use
    (bitwise that spline's real column), so a caller of the real part alone
    fits no imaginary column.  Beyond the grid the real part is closed by an
    (a + b ln w)/w^2 + c/w^3 decay, `tail` (a ``LogTail``), also fitted on
    first use and kept; `real_integral` integrates the real part exactly on
    the spline's cubic pieces and the tail.
    """

    grid: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if grid.ndim != 1 or grid.size != values.size:
            raise ValueError("grid and values must be 1-d and the same length")
        if np.any(np.diff(grid) <= 0) or grid[0] < 0:
            raise ValueError("grid must be nonnegative and strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @cached_property
    def _spline(self):
        return PiecewiseCubic.not_a_knot(self.grid, np.stack((self.values.real,
                                                              self.values.imag), axis=-1))

    @cached_property
    def _real_spline(self):
        return PiecewiseCubic.not_a_knot(self.grid, self.values.real)

    @cached_property
    def tail(self):
        """The real part's decay beyond the grid: ``LogTail.fit`` to its top decade."""
        return LogTail.fit(self.grid, self.values.real)

    @cached_property
    def real_integral(self):
        """int of the real part from grid[0] to infinity: the spline's cubic
        pieces exactly, plus the tail."""
        return float(self._real_spline.integral() + self.tail.integral())

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        aw = np.abs(w)
        if np.any(aw < self.grid[0]) or np.any(aw > self.grid[-1]):
            raise FrequencyRangeError(f"|w| outside sampled range of {self.label or 'curve'}")
        # the (re, im) columns are the two halves of each complex value
        out = self._spline(aw, out=np.empty(aw.shape + (2,))).view(complex)[..., 0]
        np.conjugate(out, out=out, where=w < 0)
        return out if out.ndim else complex(out)


def alpha(model, w1, w2):
    """Symmetric two-frequency combination 1 - s s' + r r'."""
    return (
        1.0
        - transmissivity(model, w1) * transmissivity(model, w2)
        + reflectivity(model, w1) * reflectivity(model, w2)
    )


def beta(model, w1, w2):
    """Antisymmetric two-frequency combination s r' - r s'."""
    return (
        transmissivity(model, w1) * reflectivity(model, w2)
        - reflectivity(model, w1) * transmissivity(model, w2)
    )


def gamma(model, w, settings=None, full_output=False):
    """Cutoff factor Gamma[w] by adaptive quadrature, real w: the test oracle.

    Both signs of w are accepted (the integral itself delivers
    Gamma[-w] = conj Gamma[w]); the regular limit Gamma[0] = r[0]^2 is
    returned directly at w = 0.
    """
    w = float(w)
    if w == 0.0:
        g0 = complex(reflectivity(model, 0.0)) ** 2
        return (g0, 0.0) if full_output else g0

    def integrand(u):
        return 3.0 * u * (1.0 - u) * alpha(model, w * (1.0 - u), w * u)

    value, err = adaptive_gauss_legendre(integrand, 0.0, 1.0, settings)
    return (value, err) if full_output else value


def gamma_samples(model, w):
    """Gamma shaped like w, as the model gives it: by its exact rule at real
    w, and by its continuation at complex w in Im w > 0 (a table's is the
    Cauchy integral of its ``gamma_curve``)."""
    return model._gamma(np.asarray(w))


def susceptibility(model, mech, w):
    """Motional susceptibility chi[w] = i m tau w^3 Gamma[w] at real w, scalar or array."""
    w = np.asarray(w, dtype=float)
    out = _chi(mech, w, gamma_samples(model, w))
    return out if out.ndim else complex(out)


def _chi(mech, w, g):
    """chi = i m tau w^3 Gamma from Gamma's samples g at w."""
    return 1j * mech.m * mech.tau * w**3 * g


def _axis_motional(model, mech, y):
    """Z(i y)'s motional term m tau y^2 conj Gamma[y], Gamma as the model reads its axis."""
    return (mech.m * mech.tau * y) * (y * np.conj(model._axis_gamma(y)))


def induced_mass(mech, omega_c):
    """High-frequency mass mu = m omega_C tau induced by the coupling."""
    if not np.isfinite(omega_c) or omega_c < 0:
        raise ValueError("omega_c must be finite and nonnegative")
    return mech.m * omega_c * mech.tau


@dataclass(frozen=True)
class CutoffDiagnostics:
    tail_fraction: float
    decay_slope: float


def curve_cutoff(curve):
    """omega_C = (2/pi) ``real_integral`` of a Gamma curve and Gamma_R's top-decade slope.
    CutoffDivergenceError where Gamma_R has no integrable decay on that decade: a slope
    above -1.2 (Gamma_R == 1 has 0), or values <= 0 but not all 0, whose log has no slope."""
    top, real = curve.grid[-1], curve.values.real[curve.grid >= curve.grid[-1] / 10.0]
    if np.any(real) and real.min() <= 0.0:
        raise CutoffDivergenceError(f"Gamma_R is not positive on the top decade [{top / 10.0:g}, "
                                    f"{top:g}] (it reaches {real.min():.3g}), so it has no decay "
                                    "to fit; no cutoff is taken")
    slope = decay_slope(curve.grid, curve.values.real)
    if slope > -1.2:
        raise CutoffDivergenceError(f"Gamma_R decays like w^{slope:.2f} on the top decade "
                                    f"[{top / 10.0:g}, {top:g}]; cutoff integral does not converge")
    return (2.0 / np.pi) * curve.real_integral, slope


def reflection_cutoff(model, omega_max=None, full_output=False):
    """Reflection cutoff omega_C = (1/pi) int_-inf^inf Gamma_R dw.

    Folded to (2/pi) int_0^inf by parity, with a tail above ``omega_max``
    (default: the model's ``_curve_top``, 1e3 times its ``omega_scale`` or
    the table's top below that).  The Lorentzian gives its own, 3 Omega, in
    closed form, and works out the share above ``omega_max`` and the
    top-decade slope of Gamma_R only under ``full_output``; any other model
    the ``curve_cutoff`` of its Gamma curve to ``omega_max`` (``gamma_curve``
    where that ends there), whose slope is always fitted.
    """
    if omega_max is None:
        omega_max = model._curve_top
    exact = model._cutoff(omega_max, full_output)
    if exact is None:
        curve = model.gamma_curve
        if curve.grid[-1] != omega_max:
            from .analysis import sample_gamma_real

            curve = sample_gamma_real(model, omega_max)
        omega_c, slope = curve_cutoff(curve)
        total, tail = curve.real_integral, curve.tail.integral()
        exact = omega_c, tail / total if tail else 0.0, slope
    omega_c, tail_fraction, slope = exact
    if full_output:
        return omega_c, CutoffDiagnostics(tail_fraction, slope)
    return omega_c
