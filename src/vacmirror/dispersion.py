"""Dispersion relations and time-domain kernels.

The cutoff factor Gamma is causal: its real and imaginary parts on the
real axis are a Kramers-Kronig pair, and the same Cauchy integral
continues it into Im w > 0.  This module provides

* the Cauchy continuation of sampled Gamma_R into Im w > 0, at one w or an
  array of them (a table's Gamma there),
* its boundary value on the real axis, the Kramers-Kronig reconstruction
  of Gamma_I from Gamma_R,
* the memory run's ``TimeKernel`` for ``dynamics.simulate_with_memory``:
  the trapezoidal convolution quadrature (``cq_weights``) of a model's
  Gamma (``model_time_kernel``, as ``vacmirror simulate`` runs) or of a chi
  curve (``build_time_kernel``),
* a discretization cross-check of the linear-response identity
  chi(t) - chi(-t) = 2 m tau Gamma_R'''(t).

The continuation and the reconstruction are one sum: the Cauchy kernel
integrated exactly on the cubic pieces of a ResponseCurve's spline of
Gamma_R, closed beyond its grid by the curve's tail (``ResponseCurve.tail``,
one ``LogTail``) in closed form.  On the real axis the sum is its limit from
above (Sokhotski-Plemelj): the principal value plus i pi Gamma_R(w); above
a Gamma curve's top, ``LogTail.axis`` expands that limit to y^-3.
Transforms follow the package sign convention (see numerics module).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ContinuationError, FrequencyRangeError, KernelWindowError,
                     RegularizationError)
from .numerics import _log_fit, cubic_cauchy, fft_length, spectrum_to_kernel, write_csv_files
from .susceptibility import (ResponseCurve, _axis_motional, gamma, gamma_samples,
                             susceptibility)


def _cauchy_sum(gamma_r, w):
    """int Gamma_R(w') 2w/(w'^2 - w^2) dw' from the grid's first node to infinity,
    for a 1-d array of w: as 2w/(w'^2 - w^2) = 1/(w' - w) - 1/(w' + w), one
    ``cubic_cauchy`` sum over the spline's cubic pieces at w and -w together,
    exact however narrow the kernel, its two halves subtracted (each row of the
    sum stands alone, so its bits are those of one call per half), plus
    ``LogTail.cauchy``; at a real w, the boundary value from above."""
    x, c = gamma_r._real_spline.x, gamma_r._real_spline.c
    both = cubic_cauchy(x, c, np.concatenate([w, -w]))
    return both[: w.size] - both[w.size :] + gamma_r.tail.cauchy(w)


def kk_reconstruct(gamma_r, w):
    """Full Gamma[w] from samples of Gamma_R via the dispersion relation.

    ``gamma_r`` is a ResponseCurve (imaginary parts, if any, are ignored)
    and ``w`` a frequency or an array, each |w| inside the grid or 0 on a
    grid from 0.  It is the limit of ``continue_upper_half`` on the real
    axis, one call for all of w: its real part is the curve's spline of
    Gamma_R at |w|, its imaginary part, odd in w, the principal value.  A
    grid that starts above 0 is led by Gamma_R frozen at its edge value.
    """
    grid = gamma_r.grid
    w = np.asarray(w, dtype=float)
    aw = np.abs(w)
    inside = (grid[0] < aw) & (aw < grid[-1])
    center = (w == 0.0) & (grid[0] == 0.0)  # the odd part vanishes there
    if not np.all(inside | center):
        raise FrequencyRangeError(f"|w|={aw[~(inside | center)].flat[0]} outside grid interior")
    edge = gamma_r.values[0].real
    out = np.full(w.shape, complex(edge))  # Gamma_R(0) at the center
    wi = aw[inside]
    total = _cauchy_sum(gamma_r, wi)
    if grid[0] > 0.0:
        total += edge * np.log((wi - grid[0]) / (wi + grid[0]))
    out[inside] = total / (1j * np.pi)
    out = np.where(w < 0, np.conj(out), out)
    return out if out.ndim else complex(out)


def continue_upper_half(gamma_r, w):
    """Cauchy continuation of Gamma into Im w > 0 from Gamma_R samples.

    Returns (1/(i pi)) int Gamma_R(w') * 2w/(w'^2 - w^2) dw' from the grid's
    first node (0 for a Gamma curve) to infinity, shaped like ``w``: one
    frequency or an array, each with Im w > 0.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(np.imag(w) <= 0):
        raise ContinuationError("continuation defined for Im w > 0 only")
    out = (_cauchy_sum(gamma_r, w.ravel()) / (1j * np.pi)).reshape(w.shape)
    return out if out.ndim else complex(out)


def cq_weights(symbol, mu, window, dt, floor=0):
    """History weights h of a run of n = window/dt steps, KernelWindowError below
    two: the trapezoidal convolution quadrature (Lubich, Numer. Math. 52, 1988)
    of H(s), ``symbol(w)`` being conj H at s = -i w, asked at the bins w_k =
    (2/dt) tan(pi k/L) 8192 at a time; H_0 = -mu and H_(L/2) = 0.  Lags past the
    period L, the least even 2^a 3^b 5^c >= max(5 n/2, 4096, floor), alias."""
    n = int(round(window / dt))
    if n < 2:
        raise KernelWindowError("the kernel window spans fewer than two steps of dt")
    size = fft_length(max(5 * n // 2, 4096, floor))
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    spectrum[0] = -mu
    for lo in range(1, size // 2, 8192):
        w = (2.0 / dt) * np.tan(np.pi / size * np.arange(lo, min(lo + 8192, size // 2)))
        spectrum[lo : lo + w.size] = symbol(w)
    return np.fft.irfft(spectrum, size) / dt


@dataclass(frozen=True)
class TimeKernel:
    """History weights h of a memory run, with the induced mass mu they leave
    out and their step dt: the convolution-quadrature weights of the memory
    less mu, H = -(chi[w] + mu w^2)/w^2, on a period of n_fft lags."""

    weights: np.ndarray
    mu_subtracted: float
    dt: float

    @property
    def n_fft(self):
        """The weights' period."""
        return self.weights.size

    def to_csv(self, path):
        header = f"# mu_subtracted = {self.mu_subtracted:.11e}\n# dt = {self.dt:.11e}\nt,h"
        write_csv_files([(path, header, [np.arange(self.n_fft) * self.dt, self.weights])])


def model_time_kernel(model, mech, mu, window, dt):
    """The model's kernel for a run of window/dt steps: the ``cq_weights`` of
    H(s) = m tau s Gamma{s} - mu from Gamma as the model reads it on the real
    axis, on a period of 40 time units 1/omega_scale or more, which holds the
    aliased lags to 1e-10 in W_m on a free mass's step drive."""

    def symbol(w):
        return 1j * _axis_motional(model, mech, w) / w - mu

    floor = int(np.ceil(40.0 / (model.omega_scale * dt)))
    return TimeKernel(cq_weights(symbol, mu, window, dt, floor), float(mu), float(dt))


def build_time_kernel(chi_curve, mu, window, dt):
    """The ``cq_weights`` of H = -(chi[w] + mu w^2)/w^2 for a run of window/dt
    steps: H from ``chi_curve`` up to its top, and above it the tail (A + B ln w
    + C/w)/w, w H fitted to the curve's top decade by complex least squares.  If
    |H| does not fall across that decade, mu is inconsistent and
    RegularizationError is raised.  The period has no floor in time units, as a
    chi curve carries no frequency scale: ``window`` sets the horizon."""
    grid, top = chi_curve.grid, chi_curve.grid[-1]
    decade = grid >= top / 10.0
    wd = grid[decade]
    hd = -(chi_curve.values[decade] + mu * wd**2) / wd**2
    upper = wd >= top / 10.0**0.5
    if upper.sum() >= 2 and (~upper).sum() >= 2 and \
            np.median(np.abs(hd[upper])) > 0.5 * np.median(np.abs(hd[~upper])):
        raise RegularizationError("chi + mu w^2 does not decay; mass subtraction inconsistent")
    a, b, c = _log_fit(wd, wd * hd)

    def symbol(w):
        h = np.empty(w.size, dtype=complex)
        inside = w <= top
        wi, wo = w[inside], w[~inside]
        h[inside] = -(chi_curve(wi) + mu * wi**2) / wi**2
        h[~inside] = (a + b * np.log(wo) + c / wo) / wo
        return np.conj(h)

    return TimeKernel(cq_weights(symbol, mu, window, dt), float(mu), float(dt))


def acceleration_weights(kernel):
    """A kernel's acceleration-history weights h, its ``weights``: two integrations
    by parts turn the memory chi + mu w^2 of q into mu a plus h, of symbol
    -(chi + mu w^2)/w^2, convolved with a (exact from rest in the far past)."""
    return kernel.weights


_CONSISTENCY_N_FFT, _CONSISTENCY_DT = 2048, 0.1  # dt in units of 1/omega_scale


def consistency_band(model):
    """Top frequency of consistency_check's grid on ``model``: pi/dt plus half a bin."""
    return np.pi * model.omega_scale / _CONSISTENCY_DT * (1.0 + 1.0 / _CONSISTENCY_N_FFT)


def consistency_check(model, mech):
    """Discrete check of chi(t) - chi(-t) = 2 m tau Gamma_R'''(t).

    The left side antisymmetrizes the inverse transform of the full chi;
    the right side spectrally differentiates a Gamma_R curve sampled
    independently on a half-shifted grid and resampled.  The normalized
    maximum discrepancy, returned as a float, measures the joint Gamma
    evaluation, interpolation and transform consistency; it decreases under
    grid refinement.  The grid has _CONSISTENCY_N_FFT points at dt =
    0.1/``model.omega_scale``, a band of 31.4 omega_scale.
    """
    n_fft, dt = _CONSISTENCY_N_FFT, _CONSISTENCY_DT / model.omega_scale
    freqs = np.fft.rfftfreq(n_fft, d=dt) * 2.0 * np.pi
    mt = mech.m * mech.tau
    if mt == 0.0:
        return 0.0

    chi_t = spectrum_to_kernel(susceptibility(model, mech, freqs), n_fft, dt)
    j = np.arange(1, n_fft // 2)
    lhs = chi_t[j] - chi_t[n_fft - j]

    half = 0.5 * (freqs[1] - freqs[0])
    shifted = freqs + half
    nodes = np.concatenate([[freqs[0]], shifted])
    samples = np.concatenate([[gamma(model, 0.0).real], gamma_samples(model, shifted).real])
    gam_r = ResponseCurve(nodes, samples)._real_spline(freqs)
    rhs_spec = 2.0 * mt * 1j * freqs**3 * gam_r
    rhs_t = spectrum_to_kernel(rhs_spec, n_fft, dt)
    rhs = rhs_t[j]

    scale = float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / (scale or 1.0))  # absolute when rhs == 0
