"""Time-domain dynamics of the mirror and its energy bookkeeping.

Two integrators cover the two regimes:

* ``simulate_perfect_mirror`` -- the local third-derivative force of the
  perfect reflector, integrated as a first-order system in (q, v, a) by
  classical RK4.  Runaway growth ~ exp(t/tau) is the phenomenon under
  study and is reported, never suppressed.
* ``simulate_with_memory`` -- the causal-mirror equation
  k q + (m - mu) q'' = F_a + int_0^t kappa(t-t') q(t') dt'
  advanced by an A-stable implicit trapezoidal step.  The history term is
  evaluated through the equivalent acceleration-weight form of the same
  kernel (exact for a mirror at rest in the far past), which keeps the
  discrete convolution bounded and bin-exact.

The energy ledger integrates the work identities; the radiated part is
defined by the decomposition W_m = W_a - dE and cross-checked against the
independently reconstructed -int F_m v dt'.

Each run is sequential in time; distinct runs share no mutable state.
"""

from dataclasses import dataclass, field

import numpy as np

from .dispersion import acceleration_weights
from .errors import FitError
from .numerics import running_integral, write_csv


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
    """Sampled run: kinematics, forces, scheme metadata, divergence flag."""

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
    meta: dict = field(default_factory=dict)


_BLOWUP = 1e100


def _rk4(deriv, y0, force, t_final, dt):
    """Classical RK4 for y' = deriv(y, F_a) from y(0) = y0 on a uniform grid.

    The force is sampled at the grid points and the half steps.  A state
    that overflows (non-finite or above _BLOWUP) is dropped and ends the
    run.  Returns (times, states, force samples, divergence time or None).
    """
    n = int(round(t_final / dt))
    ts = np.arange(n + 1) * dt
    fs = np.asarray(force(ts), dtype=float)
    f_half = np.asarray(force(ts[:-1] + 0.5 * dt), dtype=float)
    out = np.empty((n + 1, len(y0)))
    out[0] = y0
    y = out[0].copy()
    for i in range(n):
        k1 = deriv(y, fs[i])
        k2 = deriv(y + 0.5 * dt * k1, f_half[i])
        k3 = deriv(y + 0.5 * dt * k2, f_half[i])
        k4 = deriv(y + dt * k3, fs[i + 1])
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > _BLOWUP:
            return ts[: i + 1], out[: i + 1], fs[: i + 1], ts[i + 1]
        out[i + 1] = y
    return ts, out, fs, None


def simulate_perfect_mirror(mech, force, t_final, dt=None, q0=0.0, v0=0.0, a0=0.0):
    """Integrate k q + m q'' = F_a + m tau q''' as a system in (q, v, a).

    Default step is tau/50.  The tau = 0 branch integrates the plain
    oscillator in (q, v) with the acceleration slaved to the force balance
    (default step 1e-2).  Overflow truncates the trajectory and marks it
    diverged.
    """
    k, m, tau = mech.k, mech.m, mech.tau
    if tau == 0.0:
        def deriv(y, f_now):
            return np.array([y[1], (f_now - k * y[0]) / m])

        dt = dt or 1e-2
        ts, out, fs, t_div = _rk4(deriv, (q0, v0), force, t_final, dt)
        q, v = out[:, 0], out[:, 1]
        a = (fs - k * q) / m
        f_mot = np.zeros(ts.size)
    else:
        def deriv(y, f_now):
            q, v, a = y
            return np.array([v, a, (k * q + m * a - f_now) / (m * tau)])

        dt = dt if dt is not None else tau / 50.0
        ts, out, fs, t_div = _rk4(deriv, (q0, v0, a0), force, t_final, dt)
        q, v, a = out[:, 0], out[:, 1], out[:, 2]
        f_mot = k * q + m * a - fs  # = m tau q''' along the solution
    return Trajectory(
        times=ts, q=q, v=v, a=a, f_applied=fs, f_motional=f_mot,
        method="rk4", dt=dt, diverged=t_div is not None, t_diverged=t_div,
        meta={"tau": tau, "k": k, "m": m},
    )


def simulate_with_memory(mech, kernel, force, t_final, q0=0.0, history_weights=None):
    """Causal-mirror run with the vacuum memory force.

    The step size is the kernel's; the kernel period must cover the run
    (lags never reach the wrapped anticausal half).  Initial conditions
    model a release from rest: the mirror is held at q0 with zero velocity
    for t < 0, so the static history exerts no force (chi[0] = 0) and the
    memory closes over the acceleration history alone.  The induced mass
    mu is the one the kernel subtracted; the non-passive regime mu >= m
    has no bounded-effective-mass formulation and is refused.
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
    m_eff = m - mu
    ts = np.arange(n + 1) * dt
    fs = np.asarray(force(ts), dtype=float)

    q = np.empty(n + 1)
    v = np.empty(n + 1)
    a = np.empty(n + 1)
    conv = np.empty(n + 1)  # dt * sum_j h_j a_{i-j}
    arev = np.zeros(n + 1)  # arev[n - i] = a_i, so history slices are contiguous
    q[0], v[0] = q0, 0.0
    a[0] = (fs[0] - k * q0) / (m_eff - dt * h[0])
    conv[0] = dt * h[0] * a[0]
    arev[n] = a[0]
    h0 = h[0]
    denom = m_eff - dt * h0 + 0.25 * k * dt * dt
    for i in range(n):
        j = i + 1
        s_hist = dt * np.dot(h[1 : j + 1], arev[n - j + 1 : n + 1])
        rhs = fs[j] + s_hist - k * (q[i] + dt * v[i] + 0.25 * dt * dt * a[i])
        a1 = rhs / denom
        v[j] = v[i] + 0.5 * dt * (a[i] + a1)
        q[j] = q[i] + dt * v[i] + 0.25 * dt * dt * (a[i] + a1)
        a[j] = a1
        arev[n - j] = a1
        conv[j] = s_hist + dt * h0 * a1
    f_mot = mu * a + conv
    return Trajectory(
        times=ts, q=q, v=v, a=a, f_applied=fs, f_motional=f_mot,
        method="trapezoid-implicit", dt=dt, diverged=False, t_diverged=None,
        meta={
            "mu": mu, "k": k, "m": m,
            "kernel_omega_max": kernel.omega_max,
        },
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
    delta_e = energy - energy[0]
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


def export_run_csv(path, traj, ledger):
    """Write the combined trajectory/ledger table: t,q,v,a,F_a,W_a,E,W_m."""
    write_csv(path, "t,q,v,a,F_a,W_a,E,W_m", [
        traj.times, traj.q, traj.v, traj.a, traj.f_applied,
        ledger.w_applied, ledger.energy, ledger.w_radiated,
    ])


def export_energy_csv(path, ledger):
    write_csv(path, "t,W_a,E,delta_E,W_m,residual", [
        ledger.times, ledger.w_applied, ledger.energy,
        ledger.delta_energy, ledger.w_radiated, ledger.residual,
    ])
