"""Dispersion relations and time-domain kernels.

The cutoff factor Gamma is causal: its real and imaginary parts on the
real axis are a Kramers-Kronig pair, and the same Cauchy integral
continues it into Im w > 0.  This module provides

* the Cauchy continuation of sampled Gamma_R into Im w > 0, at one w or an
  array of them (a table's Gamma there),
* its boundary value on the real axis, the Kramers-Kronig reconstruction
  of Gamma_I from Gamma_R,
* the regularized time kernel kappa(t), the inverse transform of chi[w] +
  mu w^2 up to the lesser of pi/dt and the chi curve's top: the acceptance
  criteria's FFT path into the memory integrator, not ``vacmirror simulate``'s,
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

from dataclasses import dataclass, field

import numpy as np

from .errors import (ContinuationError, FrequencyRangeError, KernelWindowError,
                     RegularizationError)
from .numerics import cubic_cauchy, fft_length, spectrum_to_kernel, write_csv
from .susceptibility import ResponseCurve, gamma, gamma_samples, susceptibility


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


@dataclass(frozen=True)
class TimeKernel:
    """Regularized position-memory kernel kappa(t) on [0, T).

    kappa is the band-limited inverse transform of chi[w] + mu w^2.  That
    spectrum, at the rfft bins of the full period, is kept for the memory
    integrator's weights; ``values`` exposes the causal window.  Band
    limitation smears the t = 0 core over a guard window of a few hundred
    samples; ``causality_residual`` measures the anticausal content beyond
    a guard of 1024 samples relative to the kernel peak.
    """

    times: np.ndarray
    values: np.ndarray
    mu_subtracted: float
    dt: float
    omega_max: float
    causality_residual: float
    n_fft: int
    _spectrum: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def csv_header(self):
        return (f"# mu_subtracted = {self.mu_subtracted:.11e}\n"
                f"# dt = {self.dt:.11e}\n"
                f"# T = {self.times[-1] + self.dt:.11e}\n"
                f"# omega_max = {self.omega_max:.11e}\nt,kappa")

    def to_csv(self, path):
        write_csv(path, self.csv_header, [self.times, self.values])


def build_time_kernel(chi_curve, mu, window, dt):
    """Inverse-transform chi[w] + mu w^2 into the time kernel kappa(t).

    The transform band ends at omega_max, the lesser of pi/dt and the top
    of ``chi_curve``.  The subtraction must leave a decaying remainder: if
    |chi + mu w^2|/w^2 fails to fall across the top decade of the band, the
    requested mass is inconsistent and RegularizationError is raised; a window
    of fewer than two steps raises KernelWindowError.  The period
    n_fft, the least even 2^a 3^b 5^c >= max(2 steps, 4096), covers twice the window.
    """
    omega_max = min(np.pi / dt, chi_curve.grid[-1])
    steps = int(round(window / dt))
    if steps < 2:
        raise KernelWindowError("the kernel window spans fewer than two steps of dt")
    n_fft = fft_length(max(2 * steps, 4096))

    freqs = np.fft.rfftfreq(n_fft, d=dt) * 2.0 * np.pi
    in_band = freqs <= omega_max
    spectrum = np.zeros(freqs.size, dtype=complex)
    wb = freqs[in_band]
    spectrum[in_band] = chi_curve(wb) + mu * wb**2

    # mass consistency: the regularized spectrum must decay relative to w^2
    band = wb[wb > 0]
    ratio = np.abs(spectrum[in_band][wb > 0]) / band**2
    top = band >= band[-1] / 10.0**0.5
    mid = (band >= band[-1] / 10.0) & ~top
    if top.sum() >= 2 and mid.sum() >= 2:
        if np.median(ratio[top]) > 0.5 * np.median(ratio[mid]):
            raise RegularizationError(
                "chi + mu w^2 does not decay; mass subtraction inconsistent"
            )

    full = spectrum_to_kernel(spectrum, n_fft, dt)
    peak = float(np.max(np.abs(full)))
    # |kappa(-j dt)| for j > 1024: the anticausal half beyond the guard
    beyond_guard = np.abs(full[n_fft // 2 : n_fft - 1024])
    guarded = float(beyond_guard.max() / peak) if peak > 0 else 0.0
    times = np.arange(steps) * dt
    return TimeKernel(
        times=times,
        values=full[:steps].copy(),
        mu_subtracted=float(mu),
        dt=float(dt),
        omega_max=float(omega_max),
        causality_residual=guarded,
        n_fft=n_fft,
        _spectrum=spectrum,
    )


def acceleration_weights(kernel):
    """Equivalent acceleration-history weights of a position kernel.

    Two integrations by parts turn the position convolution into
    mu * a(t) plus a convolution of the acceleration history with
    h(t), the inverse transform of -(chi + mu w^2)/w^2.  For a mirror
    at rest in the far past both forms are identical; h is the one
    with an integrable core, so the integrator uses it.  Its spectrum is
    taken straight from the kernel's, so no forward transform adds
    rounding to the division by w^2 at the lowest bins.
    """
    spectrum = kernel._spectrum
    freqs = np.fft.rfftfreq(kernel.n_fft, d=kernel.dt) * 2.0 * np.pi
    h_spec = np.empty_like(spectrum)
    h_spec[0] = -kernel.mu_subtracted
    h_spec[1:] = -spectrum[1:] / freqs[1:] ** 2
    return spectrum_to_kernel(h_spec, kernel.n_fft, kernel.dt)


@dataclass(frozen=True)
class ConsistencyReport:
    defect: float
    n_fft: int
    dt: float
    omega_band: float


_CONSISTENCY_N_FFT, _CONSISTENCY_DT = 2048, 0.1  # dt in units of 1/omega_scale


def consistency_band(model):
    """Top frequency of consistency_check's default grid on ``model``: pi/dt plus half a bin."""
    return np.pi * model.omega_scale / _CONSISTENCY_DT * (1.0 + 1.0 / _CONSISTENCY_N_FFT)


def consistency_check(model, mech, n_fft=_CONSISTENCY_N_FFT, dt=None):
    """Discrete check of chi(t) - chi(-t) = 2 m tau Gamma_R'''(t).

    The left side antisymmetrizes the inverse transform of the full chi;
    the right side spectrally differentiates a Gamma_R curve sampled
    independently on a half-shifted grid and resampled.  The normalized
    maximum discrepancy measures the joint Gamma evaluation,
    interpolation and transform consistency; it decreases under grid
    refinement.  ``dt`` defaults to 0.1/``model.omega_scale``, a band of 31.4 omega_scale.
    """
    if dt is None:
        dt = _CONSISTENCY_DT / model.omega_scale
    freqs = np.fft.rfftfreq(n_fft, d=dt) * 2.0 * np.pi
    mt = mech.m * mech.tau
    if mt == 0.0:
        return ConsistencyReport(defect=0.0, n_fft=n_fft, dt=dt, omega_band=freqs[-1])

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
    defect = float(np.max(np.abs(lhs - rhs)) / (scale or 1.0))  # absolute when rhs == 0
    return ConsistencyReport(defect=defect, n_fft=n_fft, dt=dt, omega_band=freqs[-1])
