"""Time-domain dynamics of the mirror and its energy bookkeeping.

Two integrators cover the two regimes:

* ``simulate_perfect_mirror`` -- the local third-derivative force of the
  perfect reflector, integrated as a first-order system in (q, v, a) by
  classical RK4 on plain floats.  Runaway growth ~ exp(t/tau) is the
  phenomenon under study and is reported, never suppressed.
* ``simulate_with_memory`` -- the causal-mirror equation
  k q + (m - mu) q'' = F_a + int_0^t kappa(t-t') q(t') dt'
  discretized by the A-stable implicit trapezoidal step.  The history term
  is evaluated through the equivalent acceleration-weight form of the same
  kernel (exact for a mirror at rest in the far past), which keeps the
  discrete convolution bounded and bin-exact.  The scheme is linear and
  time-invariant, so all its steps form one lower-triangular Toeplitz
  system for the accelerations, solved blockwise in O(n log^2 n).

Both integrators end a run at the first state that overflows and report
the divergence time.

The energy ledger integrates the work identities; the radiated part is
defined by the decomposition W_m = W_a - dE and cross-checked against the
independently reconstructed -int F_m v dt'.  A run's CSV files are written
in one pass, each column they share (t, W_a, E, W_m) formatted once.

Distinct runs share no mutable state.
"""

from array import array
from dataclasses import dataclass

import numpy as np

from .dispersion import acceleration_weights
from .errors import FitError
from .numerics import fft_length, running_integral, write_csv_files


@dataclass(frozen=True)
class ForceProfile:
    """Applied force F_a(t): none, a gaussian pulse, a step or a sinusoid."""

    kind: str = "none"  # none | gaussian | step | sine
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 1.0
    frequency: float = 1.0  # angular, for kind="sine"

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "step", "sine"):
            raise ValueError(f"unknown force kind {self.kind!r}")
        if self.kind == "gaussian" and self.width <= 0:
            raise ValueError("gaussian pulse needs a positive width")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "none":
            out = np.zeros_like(t)
        elif self.kind == "gaussian":
            out = self.amplitude * np.exp(-0.5 * ((t - self.center) / self.width) ** 2)
        elif self.kind == "step":
            out = self.amplitude * (t >= self.center).astype(float)
        else:
            out = self.amplitude * np.sin(self.frequency * t)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: kinematics, forces, scheme, step and divergence flag."""

    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    a: np.ndarray
    f_applied: np.ndarray
    f_motional: np.ndarray
    method: str
    dt: float
    diverged: bool = False
    t_diverged: float = None


_BLOWUP = 1e100
_LEAF = 256  # leaf block of the memory integrator's Toeplitz solve


def _rk4(k, m, m_tau, y0, force, t_final, dt):
    """Classical RK4 for (q, v, a)' = (v, a, (k q + m a - F_a)/m_tau) from y0 on a
    uniform grid, or at m_tau = 0 for the oscillator's (v, (F_a - k q)/m, 0).

    The state is stepped as three Python floats, each stage written out, since
    array overhead would dominate a three-component step, and stored as raw
    doubles.  The force is sampled at the grid points and the half steps.  A
    state that overflows (non-finite or above _BLOWUP) is dropped and ends the run.
    Returns (times, states, force samples, divergence time or None).
    """
    n = int(round(t_final / dt))
    ts = np.arange(n + 1) * dt
    fs = np.asarray(force(ts), dtype=float)
    f_at = array("d", fs)
    f_half = array("d", np.asarray(force(ts[:-1] + 0.5 * dt), dtype=float))
    half, sixth = 0.5 * dt, dt / 6.0
    q, v, a = (float(x) for x in y0)
    out = array("d", (q, v, a))
    for i, (f0, fh, f1) in enumerate(zip(f_at, f_half, f_at[1:])):
        if m_tau:
            v1, a1 = a, (k * q + m * a - f0) / m_tau
            q2, v2 = v + half * v1, a + half * a1
            a2 = (k * (q + half * v) + m * v2 - fh) / m_tau
            q3, v3 = v + half * v2, a + half * a2
            a3 = (k * (q + half * q2) + m * v3 - fh) / m_tau
            q4, v4 = v + dt * v3, a + dt * a3
            a4 = (k * (q + dt * q3) + m * v4 - f1) / m_tau
            a = a + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
        else:
            v1 = (f0 - k * q) / m
            q2, v2 = v + half * v1, (fh - k * (q + half * v)) / m
            q3, v3 = v + half * v2, (fh - k * (q + half * q2)) / m
            q4, v4 = v + dt * v3, (f1 - k * (q + dt * q3)) / m
        q = q + sixth * (v + 2 * q2 + 2 * q3 + q4)
        v = v + sixth * (v1 + 2 * v2 + 2 * v3 + v4)
        if not (abs(q) <= _BLOWUP and abs(v) <= _BLOWUP and abs(a) <= _BLOWUP):
            return ts[: i + 1], np.reshape(out, (-1, 3)), fs[: i + 1], ts[i + 1]
        out.extend((q, v, a))
    return ts, np.reshape(out, (-1, 3)), fs, None


def simulate_perfect_mirror(mech, force, t_final, dt=None, q0=0.0, v0=0.0, a0=0.0):
    """Integrate k q + m q'' = F_a + m tau q''' as a system in (q, v, a).

    Default step is tau/50.  The tau = 0 branch integrates the plain
    oscillator in (q, v) with the acceleration slaved to the force balance
    (default step 1e-2).  Overflow truncates the trajectory and marks it
    diverged.
    """
    k, m, tau = mech.k, mech.m, mech.tau
    if tau == 0.0:
        dt = dt or 1e-2
        ts, out, fs, t_div = _rk4(k, m, 0.0, (q0, v0, 0.0), force, t_final, dt)
        q, v = out[:, 0], out[:, 1]
        a = (fs - k * q) / m
        f_mot = np.zeros(ts.size)
    else:
        dt = dt if dt is not None else tau / 50.0
        ts, out, fs, t_div = _rk4(k, m, m * tau, (q0, v0, a0), force, t_final, dt)
        q, v, a = out[:, 0], out[:, 1], out[:, 2]
        f_mot = k * q + m * a - fs  # = m tau q''' along the solution
    return Trajectory(
        times=ts, q=q, v=v, a=a, f_applied=fs, f_motional=f_mot,
        method="rk4", dt=dt, diverged=t_div is not None, t_diverged=t_div,
    )


def _trapezoid_steps(c, fs, k, dt, q0):
    """(q, v, a) of the implicit trapezoid scheme with memory column c.

    Step j solves  sum_l c_l a_{j-l} + k q_j = F_j,  with q and v stepped by
    the trapezoid rule from rest at q0.  In the accelerations alone this is
    one lower-triangular Toeplitz system T a = b, T's first column being
    c + k dt^2/4 (1, 4, 8, 12, ...).  It is solved by divide and conquer
    after Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985):
    solve the leading block, subtract its memory on the trailing block with
    one FFT convolution, recurse.  The spring's ramp couples a block to the
    later ones only through the state (q, v, a) at its last step, so it
    enters through that state, stepped as in the scheme; summed over the
    whole history instead, its weights 4(j - p) cancel to a bounded q and
    cost one to two digits.  Every leaf is the same _LEAF-sized Toeplitz
    system, so one inverse, found by forward substitution, serves them all.
    O(n log^2 n).
    """
    a, v, q = np.empty(fs.size), np.zeros(fs.size), np.full(fs.size, float(q0))
    a[0] = (fs[0] - k * q0) / c[0]
    x = fs - c[: fs.size] * a[0]  # the force less the memory of a_0
    size = min(_LEAF, max(1, fs.size - 1))
    quarter = 0.25 * dt * dt
    lag = np.arange(size)
    t = c[:size] + k * quarter * np.maximum(4.0 * lag, 1.0)
    inv = np.empty(size)  # first column of the leaf inverse
    inv[0] = 1.0 / t[0]
    for j in range(1, size):
        inv[j] = -np.dot(t[1 : j + 1], inv[j - 1 :: -1]) / t[0]
    leaf = np.zeros((size, size))
    for j in range(size):
        leaf[j:, j] = inv[: size - j]
    c_spectra = {}

    def solve(lo, hi):
        if hi - lo <= size:
            s, r = lo - 1, lag[: hi - lo] + 1  # r = j - s
            drift = q[s] + r * dt * v[s] + quarter * (2 * r - 1) * a[s]
            a[lo:hi] = leaf[: hi - lo, : hi - lo] @ (x[lo:hi] - k * drift)
            pair = a[s : hi - 1] + a[lo:hi]
            v[s:hi] = np.cumsum(np.concatenate([[v[s]], 0.5 * dt * pair]))
            q[s:hi] = np.cumsum(np.concatenate([[q[s]], dt * v[s : hi - 1] + quarter * pair]))
            return
        blocks = -(-(hi - lo) // size)
        mid = lo + size * 2 ** ((blocks - 1).bit_length() - 1)
        solve(lo, mid)
        # lags up to hi - lo - 1 < p: the circular convolution does not wrap
        p = 1 << (hi - lo - 1).bit_length()
        if p not in c_spectra:
            c_spectra[p] = np.fft.rfft(c[:p], p)
        memory = np.fft.irfft(np.fft.rfft(a[lo:mid], p) * c_spectra[p], p)
        x[mid:hi] -= memory[mid - lo : hi - lo]
        solve(mid, hi)

    solve(1, fs.size)
    return q, v, a


def simulate_with_memory(mech, kernel, force, t_final, q0=0.0, history_weights=None):
    """Causal-mirror run with the vacuum memory force.

    The step size is the kernel's; the kernel period must cover the run
    (lags never reach the wrapped anticausal half).  Initial conditions
    model a release from rest: the mirror is held at q0 with zero velocity
    for t < 0, so the static history exerts no force (chi[0] = 0) and the
    memory closes over the acceleration history alone.  The induced mass
    mu is the one the kernel subtracted; the non-passive regime mu >= m
    has no bounded-effective-mass formulation and is refused.

    All steps of the implicit trapezoid scheme are solved at once as one
    lower-triangular Toeplitz system for the accelerations.  A state that
    overflows (non-finite or above _BLOWUP) ends the run there, as in the
    RK4 runs.  The motional force convolves a with h at the least even 2^a 3^b 5^c >= 2 n + 1.
    """
    mu = kernel.mu_subtracted
    if mu >= mech.m:
        raise ValueError(
            f"mu = {mu:.6g} >= m = {mech.m:.6g}: memory integrator requires mu < m"
        )
    dt = kernel.dt
    n = int(round(t_final / dt))
    if n > kernel.n_fft // 2:
        raise ValueError("kernel period too short for the requested run length")
    h = history_weights if history_weights is not None else acceleration_weights(kernel)
    k, m = mech.k, mech.m
    ts = np.arange(n + 1) * dt
    fs = np.asarray(force(ts), dtype=float)

    # memory column: sum_l c_l a_{j-l} = (m - mu) a_j - dt sum_l h_l a_{j-l}
    c = -dt * h[: n + 1]
    c[0] += m - mu
    # a non-finite force ends the run where it appears; a leaf product
    # would spread it to the earlier steps of its block
    finite = np.isfinite(fs)
    stop = n + 1 if finite.all() else max(1, int(finite.argmin()))
    with np.errstate(over="ignore", invalid="ignore"):
        q, v, a = _trapezoid_steps(c, fs[:stop], k, dt, q0)
        held = (np.abs(q) <= _BLOWUP) & (np.abs(v) <= _BLOWUP) & (np.abs(a) <= _BLOWUP)
    overflow = np.flatnonzero(~held[1:])
    end = 1 + overflow[0] if overflow.size else stop
    t_div = ts[end] if end <= n else None
    ts, fs, q, v, a = ts[:end], fs[:end], q[:end], v[:end], a[:end]
    p = fft_length(2 * a.size - 1)  # the linear convolution does not wrap
    spectrum = np.fft.rfft(a, p)
    spectrum *= np.fft.rfft(h[: a.size], p)
    f_mot = mu * a + dt * np.fft.irfft(spectrum, p)[: a.size]
    return Trajectory(
        times=ts, q=q, v=v, a=a, f_applied=fs, f_motional=f_mot,
        method="trapezoid-implicit", dt=dt, diverged=t_div is not None, t_diverged=t_div,
    )


@dataclass(frozen=True)
class EnergyLedger:
    """Work and energy series for one trajectory.

    w_applied is the reservoir input int F_a v, energy the stored
    (1/2) k q^2 + (1/2) m v^2, w_radiated the decomposition
    W_a - dE, and residual the mismatch against the independent
    reconstruction -int F_m v dt.
    """

    times: np.ndarray
    w_applied: np.ndarray
    energy: np.ndarray
    delta_energy: np.ndarray
    w_radiated: np.ndarray
    w_radiated_check: np.ndarray
    residual: np.ndarray

    @property
    def max_energy(self):
        return float(np.max(self.energy))

    @property
    def max_residual(self):
        return float(np.max(np.abs(self.residual)))


def energy_ledger(traj, mech):
    """Integrate the work identities along a trajectory's stored samples."""
    ts, v = traj.times, traj.v
    w_a = running_integral(traj.f_applied * v, ts)
    energy = 0.5 * mech.k * traj.q**2 + 0.5 * mech.m * v**2
    # E >= +0 as k >= 0 and m > 0, and x - 0.0 is x bitwise: from rest dE is E
    delta_e = energy if energy[0] == 0 else energy - energy[0]
    w_m = w_a - delta_e
    w_m_check = -running_integral(traj.f_motional * v, ts)
    return EnergyLedger(
        times=ts,
        w_applied=w_a,
        energy=energy,
        delta_energy=delta_e,
        w_radiated=w_m,
        w_radiated_check=w_m_check,
        residual=w_m - w_m_check,
    )


@dataclass(frozen=True)
class RunawayFit:
    rate: float
    ci95: float
    efolds: float
    window: tuple


def fit_runaway_rate(traj):
    """Log-linear growth rate of |a(t)| over the final growth window.

    Requires at least 3 e-folds of net growth across the usable samples
    (a diverged run qualifies by construction); otherwise raises FitError.
    """
    ts, aa = traj.times, np.abs(traj.a)
    good = np.isfinite(aa) & (aa > 0)
    ts, aa = ts[good], aa[good]
    if ts.size < 10:
        raise FitError("too few finite samples for a growth fit")
    # envelope growth between the first and last quarter of the run; an
    # oscillating bounded signal shows none even though |a| dips to 0
    quarter = max(2, ts.size // 4)
    head = float(np.max(aa[:quarter]))
    tail_max = float(np.max(aa[-quarter:]))
    growth = np.log(tail_max / head) if head > 0 else np.inf
    if growth < 3.0:
        raise FitError(f"only {growth:.2f} e-folds of envelope growth; need 3 for a rate fit")
    start = ts.size // 2
    tw, lw = ts[start:], np.log(aa[start:])
    slope, intercept = np.polyfit(tw, lw, 1)
    resid = lw - (slope * tw + intercept)
    var = np.sum(resid**2) / max(1, tw.size - 2)
    stderr = np.sqrt(var / np.sum((tw - tw.mean()) ** 2))
    return RunawayFit(
        rate=float(slope),
        ci95=float(1.96 * stderr),
        efolds=float(growth),
        window=(float(tw[0]), float(tw[-1])),
    )


def export_simulation_csv(out, traj, ledger, kernel=None):
    """Write trajectory.csv, energy.csv and a memory run's kernel.csv into
    ``out`` in one writer pass; the kernel's t, arange(n) * dt, is bitwise
    the trajectory's first n times unless the run ended early."""
    files = [(out / "trajectory.csv", "t,q,v,a,F_a,W_a,E,W_m", [
        traj.times, traj.q, traj.v, traj.a, traj.f_applied,
        ledger.w_applied, ledger.energy, ledger.w_radiated,
    ]), (out / "energy.csv", "t,W_a,E,delta_E,W_m,residual", [
        ledger.times, ledger.w_applied, ledger.energy,
        ledger.delta_energy, ledger.w_radiated, ledger.residual,
    ])]
    if kernel is not None:
        t = traj.times[: kernel.times.size]
        files.append((out / "kernel.csv", kernel.csv_header,
                      [t if np.array_equal(t, kernel.times) else kernel.times, kernel.values]))
    write_csv_files(files)
