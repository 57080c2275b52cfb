"""Time-domain dynamics of the mirror and its energy bookkeeping.

Two integrators cover the two regimes:

* ``simulate_perfect_mirror`` -- the local third-derivative force of the
  perfect reflector, integrated as a first-order system in (q, v, a) by
  classical RK4.  The system is linear with constant coefficients, so the
  steps form one linear recurrence, advanced in blocks by matrix products.
  Runaway growth ~ exp(t/tau) is the phenomenon under study and is
  reported, never suppressed.
* ``simulate_with_memory`` -- the causal-mirror equation
  k q + (m - mu) q'' = F_a + int_0^t kappa(t-t') q(t') dt'
  discretized by the A-stable implicit trapezoidal step.  The history term
  is evaluated through the equivalent acceleration-weight form of the same
  kernel (exact for a mirror at rest in the far past), which keeps the
  discrete convolution bounded.  The scheme is linear and
  time-invariant, so all its steps form one lower-triangular Toeplitz
  system for the accelerations, solved blockwise in O(n log^2 n).  Every
  memory run is model -> ``TimeKernel`` -> this integrator, the kernel from
  ``dispersion.model_time_kernel`` (``vacmirror simulate``) or a chi curve.

Both integrators end a run at the first state that overflows and report
the divergence time.

The energy ledger integrates the work identities; the radiated part is
defined by the decomposition W_m = W_a - dE and checked against
-int F_m v dt', which a memory run convolves apart from its solve.  A run's
CSV files are written in one pass, each column they share (t, W_a, E, W_m)
formatted once.

Distinct runs share no mutable state.
"""

from dataclasses import dataclass
from operator import mul

import numpy as np

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
_BLOCK = 32  # steps per block of the RK4 recurrence


def _rk4_step(k, m, m_tau, dt, y, f0, fh, f1):
    """One classical RK4 step of (q, v, a)' = (v, a, (k q + m a - F_a)/m_tau), or at
    m_tau = 0 of the oscillator's (q, v)' = (v, (F_a - k q)/m), from state y with the
    force f0, fh, f1 at the step's start, middle and end; elementwise on arrays."""
    half, sixth = 0.5 * dt, dt / 6.0
    if m_tau:
        q, v, a = y
        v1, a1 = a, (k * q + m * a - f0) / m_tau
        q2, v2 = v + half * v1, a + half * a1
        a2 = (k * (q + half * v) + m * v2 - fh) / m_tau
        q3, v3 = v + half * v2, a + half * a2
        a3 = (k * (q + half * q2) + m * v3 - fh) / m_tau
        q4, v4 = v + dt * v3, a + dt * a3
        a4 = (k * (q + dt * q3) + m * v4 - f1) / m_tau
        a = a + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
    else:
        q, v = y
        v1 = (f0 - k * q) / m
        q2, v2 = v + half * v1, (fh - k * (q + half * v)) / m
        q3, v3 = v + half * v2, (fh - k * (q + half * q2)) / m
        q4, v4 = v + dt * v3, (f1 - k * (q + dt * q3)) / m
    q = q + sixth * (v + 2 * q2 + 2 * q3 + q4)
    v = v + sixth * (v1 + 2 * v2 + 2 * v3 + v4)
    return np.array((q, v, a) if m_tau else (q, v))


def _rk4(k, m, m_tau, y0, force, t_final, dt):
    """Classical RK4 from y0 on a uniform grid, the force sampled at the grid
    points and the half steps, as one linear recurrence y_(n+1) = R y_n + G (F_n,
    F_(n+1/2), F_(n+1)) (Hairer & Wanner, Solving ODEs II, IV.2): R and G are
    ``_rk4_step`` on unit inputs.  Composed over a block of _BLOCK steps, the
    states of a block are one matrix K times its start and its force samples:
    one product serves every block, once a carry loop has stepped the starts
    block to block.  R, G and K are formed in long double (64 bits of mantissa
    on x86-64) and K is rounded once, so the run compounds one rounding of R^B
    per block: a double R compounded once per step, and drifted 2e-11 of the
    largest state on a 1609-step runaway, against 8e-13 for the step-by-step
    loop, from an 80-bit run of the same stages.  A state
    that overflows (non-finite or above _BLOWUP) ends the run, and no block
    past the first that holds one is computed.
    Returns (times, states, force samples, divergence time or None).
    """
    n = int(round(t_final / dt))
    d = len(y0)
    ts = np.arange(n + 1) * dt
    fs = np.asarray(force(ts), dtype=float)
    unit = np.eye(d + 3, dtype=np.longdouble)
    step = _rk4_step(k, m, m_tau, np.longdouble(dt), unit[:d], *unit[d:])
    r, g = step[:, :d], step[:, d:]
    blocks = max(1, -(-n // _BLOCK))
    # u interleaves the samples F_0, F_1/2, F_1, ...: block b reads u[2 B b : 2 B (b + 1) + 1]
    u = np.zeros(2 * _BLOCK * blocks + 1)
    u[: 2 * n + 1 : 2] = fs
    u[1 : 2 * n : 2] = force(ts[:-1] + 0.5 * dt)
    finite = np.isfinite(u)
    # the first state a non-finite sample reaches; zeroed, it spreads to no earlier one
    end = n + 1 if finite.all() else max(1, (int(finite.argmin()) + 1) // 2)
    u[~finite] = 0.0
    kernel = np.zeros((_BLOCK, d, d + 2 * _BLOCK + 1))
    state = np.eye(d, d + 2 * _BLOCK + 1, dtype=np.longdouble)  # in its start and samples
    for j in range(_BLOCK):
        state = r @ state
        state[:, d + 2 * j : d + 2 * j + 3] += g
        kernel[j] = state
    x = np.empty((blocks, d + 2 * _BLOCK + 1))  # each block's start and samples
    x[:, d:] = np.lib.stride_tricks.sliding_window_view(u, 2 * _BLOCK + 1)[:: 2 * _BLOCK]
    # the carry: block b + 1 starts at R^B times block b's start plus its forced end state
    power = kernel[-1, :, :d].tolist()
    starts = [list(map(float, y0))]
    for forced in (x[:, d:] @ kernel[-1, :, d:].T).tolist():
        start = starts[-1]
        starts.append([sum(map(mul, row, start)) + f for row, f in zip(power, forced)])
    with np.errstate(over="ignore", invalid="ignore"):
        starts = np.array(starts)
        held = np.all(np.abs(starts[1:]) <= _BLOWUP, axis=1)
        if not held.all():  # compute up to the first start that overflows, and end there
            blocks = 1 + int(held.argmin())
            end = min(end, blocks * _BLOCK)
        x[:blocks, :d] = starts[:blocks]
        out = np.empty((blocks * _BLOCK + 1, d))
        out[0] = y0
        np.matmul(x[:blocks], kernel.reshape(_BLOCK * d, -1).T, out=out[1:].reshape(blocks, -1))
        held = np.all(np.abs(out[1:end]) <= _BLOWUP, axis=1)
    if not held.all():
        end = 1 + int(held.argmin())
    return ts[:end], out[:end], fs[:end], ts[end] if end <= n else None


def simulate_perfect_mirror(mech, force, t_final, dt=None, q0=0.0, v0=0.0, a0=0.0):
    """Integrate k q + m q'' = F_a + m tau q''' as a system in (q, v, a) by RK4,
    its steps one blocked linear recurrence (``_rk4``).

    Default step is tau/50.  The tau = 0 branch integrates the plain
    oscillator in (q, v) with the acceleration slaved to the force balance
    (default step 1e-2).  Overflow truncates the trajectory and marks it
    diverged.
    """
    k, m, tau = mech.k, mech.m, mech.tau
    if tau == 0.0:
        dt = dt or 1e-2
    elif dt is None:
        dt = tau / 50.0
    ts, out, fs, t_div = _rk4(k, m, m * tau, (q0, v0, a0)[: 3 if tau else 2], force, t_final, dt)
    q, v = out[:, 0], out[:, 1]
    if tau == 0.0:
        a, f_mot = (fs - k * q) / m, np.zeros(ts.size)
    else:
        a = out[:, 2]
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
    one FFT convolution, recurse.  A node's leading block is the largest
    power-of-two number of leaves short of its span, so every node but the
    last, partial one of each level spans a power of two.  Every node
    convolves at the least even 2^a 3^b 5^c covering its span (a power of
    two is its own) with the spectrum of c at that length kept where a full
    node has another of its span to come, which a partial node of that
    length reuses too.  The spring's ramp couples a block to the later ones
    only through the state (q, v, a) at its last step, so it enters through
    that state, stepped as in the scheme; summed over the whole history
    instead, its weights 4(j - p) cancel to a bounded q and cost one to two
    digits.  Every leaf is the same _LEAF-sized Toeplitz system, so one
    inverse, found by forward substitution, serves them all; its v and q
    are summed through one buffer.  A free mass (k = 0 exactly) has no ramp:
    its leaves solve the accelerations alone, and v and q follow in one pass
    after the solve, bitwise as the leaves would sum them (a cumulative sum is
    sequential).  O(n log^2 n).
    """
    a, v, q = np.empty(fs.size), np.zeros(fs.size), np.full(fs.size, float(q0))
    a[0] = (fs[0] - k * q0) / c[0]
    x = fs - c[: fs.size] * a[0]  # the force less the memory of a_0
    size = min(_LEAF, max(1, fs.size - 1))
    quarter = 0.25 * dt * dt
    r = np.arange(1, size + 1)  # the lag j - s of each leaf step from the leaf's start s
    t = c[:size] + k * quarter * np.maximum(4.0 * (r - 1), 1.0)
    inv = np.empty(size)  # first column of the leaf inverse
    inv[0] = 1.0 / t[0]
    for j in range(1, size):
        inv[j] = -np.dot(t[1 : j + 1], inv[j - 1 :: -1]) / t[0]
    leaf = np.zeros((size, size))
    for j in range(size):
        leaf[j:, j] = inv[: size - j]
    r_dt, r_quarter = r * dt, quarter * (2 * r - 1)
    pair, sums = np.empty(size), np.empty(size + 1)
    c_spectra = {}
    top = fs.size - 1
    free = k == 0.0

    def kinematics(s, hi, pair, sums):
        """v and q on s + 1 .. hi - 1 by the trapezoid rule from the state at s."""
        n = hi - 1 - s
        np.add(a[s : hi - 1], a[s + 1 : hi], out=pair[:n])
        sums[0] = v[s]
        np.multiply(pair[:n], 0.5 * dt, out=sums[1 : n + 1])
        np.cumsum(sums[: n + 1], out=v[s:hi])
        sums[0] = q[s]
        np.multiply(v[s : hi - 1], dt, out=sums[1 : n + 1])
        pair[:n] *= quarter
        sums[1 : n + 1] += pair[:n]
        np.cumsum(sums[: n + 1], out=q[s:hi])

    def solve(lo, hi):
        n, s = hi - lo, lo - 1
        if n <= size:
            if free:
                a[lo:hi] = leaf[:n, :n] @ x[lo:hi]
            else:
                drift = q[s] + r_dt[:n] * v[s] + r_quarter[:n] * a[s]
                a[lo:hi] = leaf[:n, :n] @ (x[lo:hi] - k * drift)
                kinematics(s, hi, pair, sums)
            return
        blocks = -(-n // size)
        mid = lo + size * 2 ** ((blocks - 1).bit_length() - 1)
        solve(lo, mid)
        p = fft_length(n)  # lags up to n - 1 < p: the circular convolution does not wrap
        spectrum = c_spectra.get(p)
        if spectrum is None:
            spectrum = np.fft.rfft(c[:p], p)
            if n == 2 * (mid - lo) and 2 * n <= top:  # a full node, another of its span to come
                c_spectra[p] = spectrum
        memory = np.fft.irfft(np.fft.rfft(a[lo:mid], p) * spectrum, p)
        x[mid:hi] -= memory[mid - lo : n]
        solve(mid, hi)

    solve(1, fs.size)
    # solve's closure holds solve: the cycle would keep x, c and the spectra to a gc pass
    del solve
    if free:  # the spent x holds the sums
        kinematics(0, fs.size, np.empty(fs.size - 1), x)
    return q, v, a


def simulate_with_memory(mech, kernel, force, t_final, q0=0.0, history_weights=None):
    """Causal-mirror run on a ``TimeKernel``: its step dt, induced mass mu and,
    unless ``history_weights`` are given, weights h, to lag n = t_final/dt from
    rest at q0 (chi[0] = 0: the memory closes over a alone); mu >= m, with no
    bounded effective mass, is refused.  All steps of the implicit trapezoid
    scheme are one lower-triangular Toeplitz system in a; a state that overflows
    (non-finite or above _BLOWUP) ends the run.  F_m = mu a + dt h * a convolves
    a with -dt h, the memory column less its inertia, at the least even 2^a 3^b
    5^c >= 2 n + 1."""
    k, m, mu, dt = mech.k, mech.m, kernel.mu_subtracted, kernel.dt
    h = kernel.weights if history_weights is None else history_weights
    if mu >= m:
        raise ValueError(f"mu = {mu:.6g} >= m = {m:.6g}: memory integrator requires mu < m")
    n = int(round(t_final / dt))
    if n >= len(h):
        raise ValueError("the weights' period is too short for the requested run length")
    ts = np.arange(n + 1) * dt
    fs = np.asarray(force(ts), dtype=float)

    # memory column: sum_l c_l a_{j-l} = (m - mu) a_j - dt sum_l h_l a_{j-l}
    c = -dt * h[: n + 1]
    c0 = c[0]
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
    c[0] = c0  # -dt h: the inertia m - mu is not part of F_m
    p = fft_length(2 * a.size - 1)  # the linear convolution does not wrap
    spectrum = np.fft.rfft(a, p)
    spectrum *= np.fft.rfft(c[: a.size], p)
    f_mot = mu * a - np.fft.irfft(spectrum, p)[: a.size]
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

    w_applied: np.ndarray
    energy: np.ndarray
    delta_energy: np.ndarray
    w_radiated: np.ndarray
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
    return EnergyLedger(
        w_applied=w_a,
        energy=energy,
        delta_energy=delta_e,
        w_radiated=w_m,
        residual=w_m + running_integral(traj.f_motional * v, ts),
    )


@dataclass(frozen=True)
class RunawayFit:
    rate: float
    ci95: float
    efolds: float
    window: tuple


def fit_runaway_rate(traj):
    """Log-linear growth rate of the motional force |F_m(t)| over the final
    growth window.  On a perfect mirror F_m = m tau q^(3), a pure exponential
    past a step of the drive at t0, where |a| = (F/m)(e^((t - t0)/tau) - 1)
    is biased by its constant; undriven at k = 0, F_m = m a.

    Requires at least 3 e-folds of net growth across the usable samples
    (a diverged run qualifies by construction); otherwise raises FitError.
    """
    ts, f = traj.times, np.abs(traj.f_motional)
    good = np.isfinite(f) & (f > 0)
    ts, f = ts[good], f[good]
    if ts.size < 10:
        raise FitError("too few finite samples for a growth fit")
    # envelope growth between the first and last quarter of the run; an
    # oscillating bounded signal shows none even though |F_m| dips to 0
    quarter = max(2, ts.size // 4)
    head = float(np.max(f[:quarter]))
    tail_max = float(np.max(f[-quarter:]))
    growth = np.log(tail_max / head) if head > 0 else np.inf
    if growth < 3.0:
        raise FitError(f"only {growth:.2f} e-folds of envelope growth; need 3 for a rate fit")
    start = ts.size // 2
    tw, lw = ts[start:], np.log(f[start:])
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


def export_simulation_csv(out, traj, ledger):
    """Write trajectory.csv and energy.csv into ``out`` in one writer pass."""
    write_csv_files([(out / "trajectory.csv", "t,q,v,a,F_a,W_a,E,W_m", [
        traj.times, traj.q, traj.v, traj.a, traj.f_applied,
        ledger.w_applied, ledger.energy, ledger.w_radiated,
    ]), (out / "energy.csv", "t,W_a,E,delta_E,W_m,residual", [
        traj.times, ledger.w_applied, ledger.energy,
        ledger.delta_energy, ledger.w_radiated, ledger.residual,
    ])])
