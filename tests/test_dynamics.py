import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vacmirror as vm
from vacmirror.dispersion import acceleration_weights
from vacmirror.dynamics import _BLOWUP, _LEAF
from vacmirror.errors import FitError
from vacmirror.numerics import fft_length

from conftest import make_tabulated_copy


def memory_loop(mech, kernel, force, t_final, q0=0.0):
    """The per-step implicit trapezoid loop that simulate_with_memory replaced.

    Kept as its oracle: O(n^2), one history dot product per step.
    Returns (times, q, v, a, f_motional).
    """
    mu = kernel.mu_subtracted
    dt = kernel.dt
    n = int(round(t_final / dt))
    h = acceleration_weights(kernel)
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
    return ts, q, v, a, mu * a + conv


def rk4_arrays(deriv, y0, force, t_final, dt):
    """The step-by-step NumPy-array RK4 stepper, the blocked recurrence's oracle."""
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


def perfect_mirror_arrays(mech, force, t_final, dt, q0=0.0, v0=0.0, a0=0.0):
    """simulate_perfect_mirror on the array stepper: (times, q, v, a, f_motional, t_div)."""
    k, m, tau = mech.k, mech.m, mech.tau
    if tau == 0.0:
        def deriv(y, f_now):
            return np.array([y[1], (f_now - k * y[0]) / m])

        ts, out, fs, t_div = rk4_arrays(deriv, (q0, v0), force, t_final, dt)
        q, v = out[:, 0], out[:, 1]
        return ts, q, v, (fs - k * q) / m, np.zeros(ts.size), t_div

    def deriv(y, f_now):
        q, v, a = y
        return np.array([v, a, (k * q + m * a - f_now) / (m * tau)])

    ts, out, fs, t_div = rk4_arrays(deriv, (q0, v0, a0), force, t_final, dt)
    q, v, a = out[:, 0], out[:, 1], out[:, 2]
    return ts, q, v, a, k * q + m * a - fs, t_div


def make_kernel(mech, t_final, dt, mu=None):
    band = np.pi / dt
    grid = np.concatenate([[0.0], np.geomspace(1e-3, band, 1600)])
    chi = 1j * mech.m * mech.tau * grid**3 * vm.lorentzian_gamma(grid)
    curve = vm.ResponseCurve(grid, chi, label="chi")
    mu = 3.0 * mech.m * mech.tau if mu is None else mu
    return vm.build_time_kernel(curve, mu, window=t_final, dt=dt)


def zero_kernel(t_final, dt):
    grid = np.concatenate([[0.0], np.geomspace(1e-3, np.pi / dt, 400)])
    curve = vm.ResponseCurve(grid, np.zeros_like(grid) + 0j, label="chi")
    return vm.build_time_kernel(curve, 0.0, window=t_final, dt=dt)


def test_runaway_free_mass():
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    traj = vm.simulate_perfect_mirror(
        mech, vm.ForceProfile(kind="none"), t_final=5 * mech.tau, a0=1e-6
    )
    assert not traj.diverged
    fit = vm.fit_runaway_rate(traj)
    assert abs(fit.rate - 1.0 / mech.tau) * mech.tau < 1e-2


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(min_value=0.1, max_value=1.0),
       t_final=st.floats(min_value=10.0, max_value=20.0),
       kind=st.sampled_from(["step", "gaussian", "sine"]),
       frequency=st.floats(min_value=0.5, max_value=2.0))
# two step drives on which a log-linear fit of |a| = (F/m)(e^((t - 5)/tau) - 1)
# read 1.005e-2 and 1.03e-2 off 1/tau, biased by the constant
@example(tau=0.9241446207772924, t_final=11.0, kind="step", frequency=0.5561713106656616)
@example(tau=0.9598848602805055, t_final=11.203, kind="step", frequency=0.5945968143187363)
def test_runaway_rate_of_a_driven_free_mirror(tau, t_final, kind, frequency):
    # a driven perfect mirror at k = 0 runs away at 1/tau, to criterion 8's bound
    mech = vm.MirrorMechanics(k=0.0, tau=tau)
    force = vm.ForceProfile(kind=kind, amplitude=1e-3, center=5.0, width=1.5,
                            frequency=frequency)
    traj = vm.simulate_perfect_mirror(mech, force, t_final, dt=1e-3)
    assert abs(vm.fit_runaway_rate(traj).rate * tau - 1.0) < 1e-2


def test_runaway_overflow_marks_divergence():
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    traj = vm.simulate_perfect_mirror(
        mech, vm.ForceProfile(kind="none"), t_final=0.3, a0=1.0
    )
    assert traj.diverged
    # the overflowing state is dropped: the run ends one step before t_diverged
    assert traj.t_diverged == pytest.approx(traj.times[-1] + traj.dt, rel=1e-12)
    for series in (traj.q, traj.v, traj.a, traj.f_applied, traj.f_motional):
        assert len(series) == len(traj.times)
    fit = vm.fit_runaway_rate(traj)
    assert abs(fit.rate - 1000.0) < 10.0


def test_bare_oscillator_branch_bounded():
    mech = vm.MirrorMechanics(k=1.0, tau=0.0)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=3.0, width=0.8)
    traj = vm.simulate_perfect_mirror(mech, pulse, t_final=40.0, dt=5e-3)
    assert not traj.diverged
    assert np.max(np.abs(traj.q)) < 1.0
    assert np.max(np.abs(traj.q[traj.times > 10])) > 0  # it rings, undamped


def test_null_solution_stays_null():
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    traj = vm.simulate_perfect_mirror(mech, vm.ForceProfile(kind="none"), t_final=0.05)
    assert np.all(traj.q == 0) and np.all(traj.v == 0) and np.all(traj.a == 0)


def test_velocity_consistent_with_position():
    mech = vm.MirrorMechanics(k=1.0, tau=0.0)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=3.0, width=0.8)
    traj = vm.simulate_perfect_mirror(mech, pulse, t_final=20.0, dt=2e-3)
    dq = np.gradient(traj.q, traj.times)
    scale = np.max(np.abs(traj.v))
    # central differences carry their own O(dt^2) error; skip the
    # one-sided endpoints
    assert np.max(np.abs(dq - traj.v)[1:-1]) < 1e-5 * scale


def test_rk4_convergence_order():
    mech = vm.MirrorMechanics(k=1.0, tau=0.1)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=0.4, width=0.1)

    def q_end(dt):
        return vm.simulate_perfect_mirror(mech, pulse, t_final=1.0, dt=dt).q[-1]

    ref = q_end(0.02 / 4)
    e1 = abs(q_end(0.02) - ref)
    e2 = abs(q_end(0.01) - ref)
    order = np.log2(e1 / e2)
    assert 3.5 < order < 4.6


def test_memory_convergence_order_decoupled():
    # kappa = 0 reduces the memory stepper to the trapezoidal oscillator
    mech = vm.MirrorMechanics(k=1.0, tau=0.0)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=2.0, width=0.5)

    def q_end(dt):
        kern = zero_kernel(8.0, dt)
        return vm.simulate_with_memory(mech, kern, pulse, 8.0).q[-1]

    ref = q_end(0.02 / 8)
    e1 = abs(q_end(0.02) - ref)
    e2 = abs(q_end(0.01) - ref)
    order = np.log2(e1 / e2)
    assert 1.7 < order < 2.3


def test_memory_decoupled_energy_residual():
    mech = vm.MirrorMechanics(k=1.0, tau=0.0)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=2.0, width=0.5)
    kern = zero_kernel(8.0, 2e-4)
    traj = vm.simulate_with_memory(mech, kern, pulse, 8.0)
    ledger = vm.energy_ledger(traj, mech)
    assert np.max(np.abs(ledger.w_radiated)) < 1e-8 * ledger.max_energy
    assert ledger.max_residual < 1e-8 * ledger.max_energy


def test_memory_refuses_heavy_vacuum_mass():
    mech = vm.MirrorMechanics(k=1.0, tau=0.4)  # mu/m = 1.2
    kern = make_kernel(mech, 5.0, 2e-3)
    with pytest.raises(ValueError, match="mu"):
        vm.simulate_with_memory(mech, kern, vm.ForceProfile(kind="none"), 5.0)


def test_memory_run_too_long_for_kernel():
    mech = vm.MirrorMechanics(k=1.0, tau=0.1)
    kern = make_kernel(mech, 5.0, 2e-3)
    limit = kern.n_fft // 2 * kern.dt
    with pytest.raises(ValueError, match="period"):
        vm.simulate_with_memory(mech, kern, vm.ForceProfile(kind="none"), 2 * limit)


def test_memory_run_refuses_weights_shorter_than_the_run():
    # 5000 steps on 100 weights: this was a broadcasting ValueError from the
    # memory column's first row
    mech = vm.MirrorMechanics(k=1.0, tau=0.1)
    kern = make_kernel(mech, 5.0, 1e-3)
    with pytest.raises(ValueError, match="period"):
        vm.simulate_with_memory(mech, kern, vm.ForceProfile(kind="none"), 5.0,
                                history_weights=acceleration_weights(kern)[:100])


def test_memory_run_keeps_only_what_it_uses():
    # the run keeps no reference to the weights' period and no copy of them
    # through the solve, and convolves F_m after it with the memory column it
    # solved with (107.4 B a step at 30,000 steps; 115.4 with a copy of the
    # weights); the solve's recursive closure must not keep its work arrays
    # alive past the return until a gc pass
    mech = vm.MirrorMechanics(k=2.25, tau=0.3)
    force = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=4.0, width=1.2)
    steps, dt = 30_000, 1e-3
    kern = make_kernel(mech, steps * dt, dt)
    vm.simulate_with_memory(mech, kern, force, steps * dt)  # warm
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        traj = vm.simulate_with_memory(mech, kern, force, steps * dt)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(x.nbytes for x in (traj.times, traj.q, traj.v, traj.a, traj.f_applied,
                                  traj.f_motional))
    assert (peak - start) / steps < 112
    assert end - start < kept + 100_000


def cq_weights(model, mech, dt, n):
    """Trapezoidal convolution-quadrature weights (Lubich, Numer. Math. 52, 1988)
    of the whole motional kernel H(s) = m tau s Gamma{s}, no mu subtracted, at
    lags 0..n: w_l = rho^-l/L sum_k H(delta(rho e^(2 pi i k/L))/dt) e^(-2 pi i k l/L)
    with delta(z) = 2 (1 - z)/(1 + z), L = 2 (n + 1) and rho^L = 1e-8."""
    size = 2 * (n + 1)
    rho = 1e-8 ** (1.0 / size)
    z = rho * np.exp(2j * np.pi * np.arange(size) / size)
    s = 2.0 * (1.0 - z) / (1.0 + z) / dt
    h = mech.m * mech.tau * s * vm.gamma_samples(model, 1j * s)
    return (rho ** -np.arange(n + 1) * np.fft.fft(h)[: n + 1] / size).real


def kicked_run(model, mech, dt, t_final):
    """A run kicked by a small Gaussian pulse, its memory the CQ weights of the
    whole kernel: with mu_subtracted = 0 the solver's leading coefficient is
    m - w_0, which is negative, not zero, at mu > m, so the run goes on there."""
    n = int(round(t_final / dt))
    kern = vm.TimeKernel(cq_weights(model, mech, dt, n) / dt, 0.0, dt)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-6, center=10 * dt, width=2 * dt)
    return vm.simulate_with_memory(mech, kern, pulse, t_final)


@pytest.mark.parametrize("tau,k", [(0.4, 0.0), (0.4, 4.0), (0.35, 0.0), (1.0, 0.0)])
def test_kicked_run_grows_at_the_stability_root(tau, k):
    # a zero of Z in Re p > 0 is a growing motion: the run measures its rate
    # with none of the walk's or the secant's code, to 4e-6..8e-6 relative at
    # dt = 0.01/p (about 1200 steps whatever p is)
    model, mech = vm.lorentzian_mirror(), vm.MirrorMechanics(k=k, tau=tau)
    report = vm.stability_report(model, mech)
    assert report.rhp_zero_count == len(report.roots) == 1
    p = report.roots[0][0].real
    traj = kicked_run(model, mech, 0.01 / p, 12.0 / p)
    assert not traj.diverged
    assert abs(vm.fit_runaway_rate(traj).rate / p - 1.0) < 2e-4


@settings(max_examples=40, deadline=None)
@given(omega=st.floats(min_value=0.5, max_value=4.0),
       mass=st.floats(min_value=1.001, max_value=900.0, exclude_min=True),
       spring=st.floats(min_value=0.0, max_value=4.0))
def test_kicked_run_grows_at_the_root_of_any_lorentzian(omega, mass, spring):
    # one growing mode past the mass boundary, mu/m = 3 Omega tau in (1.001,
    # 900], at any Omega and k/m in [0, 4 Omega^2]: its rate is the one root
    model = vm.lorentzian_mirror(omega)
    mech = vm.MirrorMechanics(k=spring * omega**2, tau=mass / (3.0 * omega))
    report = vm.stability_report(model, mech)
    assert report.rhp_zero_count == len(report.roots) == 1
    p = report.roots[0][0].real
    traj = kicked_run(model, mech, 0.01 / p, 12.0 / p)
    assert not traj.diverged
    assert abs(vm.fit_runaway_rate(traj).rate / p - 1.0) < 2e-4


@pytest.mark.parametrize("tau", [0.4, 0.35])
def test_kicked_run_on_the_table_grows_at_its_stability_root(tau):
    # the 1100-top table's roots through its Cauchy continuation, 30.89 and
    # 176.8, seen in the time domain through the same continuation
    table_1100 = make_tabulated_copy(omega_max=1100.0, step=1e-2, log_points=2200)
    mech = vm.MirrorMechanics(k=0.0, tau=tau)
    report = vm.stability_report(table_1100, mech)
    assert report.rhp_zero_count == len(report.roots) == 1
    p = report.roots[0][0].real
    traj = kicked_run(table_1100, mech, 0.01 / p, 12.0 / p)
    assert not traj.diverged
    assert abs(vm.fit_runaway_rate(traj).rate / p - 1.0) < 2e-4


@pytest.mark.parametrize("tau,k", [(0.2, 0.0), (0.2, 4.0), (0.3, 2.25)])
def test_kicked_run_below_the_mass_boundary_does_not_grow(tau, k):
    # criterion 6's dichotomy in the time domain: at mu < m no zero, no growth
    model, mech = vm.lorentzian_mirror(), vm.MirrorMechanics(k=k, tau=tau)
    report = vm.stability_report(model, mech)
    assert report.passive and report.rhp_zero_count == 0
    traj = kicked_run(model, mech, 1e-3, 12.0)
    quarter = traj.a.size // 4
    assert np.max(np.abs(traj.a[-quarter:])) < np.max(np.abs(traj.a[:quarter]))
    with pytest.raises(FitError):
        vm.fit_runaway_rate(traj)


_PERIOD_CASES = [
    (vm.MirrorMechanics(k=2.25, tau=0.3),
     vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=4.0, width=1.2)),
    (vm.MirrorMechanics(k=0.0, tau=0.2), vm.ForceProfile(kind="step", amplitude=1e-3, center=1.0)),
]


@pytest.mark.parametrize("mech,force,n,longer,periods",
                         [case + (33_000, 8, (82944, 663552)) for case in _PERIOD_CASES]
                         + [_PERIOD_CASES[1] + (2_000, 64, (40000, 320000))],
                         ids=["pulse", "step", "short-step"])
def test_cq_memory_run_matches_a_longer_period(mech, force, n, longer, periods):
    # weights of period 82,944 (5/2 of 33,000 steps, rounded up to 2^a 3^b 5^c,
    # not the 2^17 a power of two would take) against eight times that; the
    # step's W_m reads 8.8e-11 off (1.4e-10 at 2 n).  At 2,000
    # steps the period's floor of 40 time units sets it at 40,000: q reads
    # 2.0e-13 of its largest value and W_m 2.2e-12 off a 64 times longer
    # period's run (6.4e-5 and 1.3e-3 at 5 n/2 = 5,000)
    dt = 1e-3
    model, mu = vm.lorentzian_mirror(), 3.0 * mech.m * mech.tau
    runs = []
    for steps in (n, longer * n):
        kern = vm.model_time_kernel(model, mech, mu, steps * dt, dt)
        traj = vm.simulate_with_memory(mech, kern, force, n * dt)
        runs.append((kern.n_fft, traj.q, vm.energy_ledger(traj, mech).w_radiated[-1]))
    (n_fit, q, w_m), (n_long, q_long, w_m_long) = runs
    assert (n_fit, n_long) == periods
    assert np.max(np.abs(q - q_long)) < 1e-11 * np.max(np.abs(q_long))
    assert abs(w_m - w_m_long) < 1e-10 * abs(w_m_long)


def test_cq_memory_run_on_a_table_between_powers_of_ten():
    # the Lorentzian at Omega = 4 tabulated to 200 takes the power of ten
    # nearest its half-power node, 10, for its scale, so at 2,000 steps of 1e-3
    # its weights' period floor spans 4 time units (5,000), the Lorentzian's 10
    # (10,000).  Against a 64 times longer period q reads 1.4e-8 of its largest
    # value and W_m 1.5e-6 off (1.1e-9 and 1.2e-7 at scale 4), 18 and 15 times
    # below the table's own gap to the Lorentzian's run, 2.5e-7 and 2.2e-5 (the
    # table ends at 50 Omega: its omega_C is 1.3e-4 short)
    force, dt, n = _PERIOD_CASES[1][1], 1e-3, 2_000
    mech = vm.MirrorMechanics(k=0.0, tau=0.05)  # tau Omega = 0.2, as in the step case
    lorentzian = vm.lorentzian_mirror(4.0)
    w, *columns = make_tabulated_copy(omega_max=50.0, step=1e-2, log_points=2200).table
    table = vm.tabulated_mirror(4.0 * w, *columns)
    mu = 3.0 * 4.0 * mech.m * mech.tau
    runs = []
    for model, steps in ((table, n), (table, 64 * n), (lorentzian, n)):
        kern = vm.model_time_kernel(model, mech, mu, steps * dt, dt)
        traj = vm.simulate_with_memory(mech, kern, force, n * dt)
        runs.append((kern.n_fft, traj.q, vm.energy_ledger(traj, mech).w_radiated[-1]))
    (n_fit, q, w_m), (_, q_long, w_m_long), (n_lorentzian, q_exact, w_m_exact) = runs
    assert table.omega_scale == 10.0 and (n_fit, n_lorentzian) == (5000, 10000)
    assert np.max(np.abs(q - q_long)) < 3e-8 * np.max(np.abs(q_long))
    assert abs(w_m - w_m_long) < 3e-6 * abs(w_m_long)
    assert np.max(np.abs(q - q_exact)) < 5e-7 * np.max(np.abs(q_exact))
    assert abs(w_m - w_m_exact) < 5e-5 * abs(w_m_exact)


def test_cq_memory_run_is_second_order_from_rest():
    # a drive that starts smooth (the Gaussian at t = 10 is 2e-10 of its peak
    # at t = 0): q reads order 2.02 between dt = 0.02 and 0.01 against dt =
    # 0.02/16; criterion 9's pulse, 4e-3 of its peak at t = 0, is a jump and
    # reads 0.80 there
    model, mech = vm.lorentzian_mirror(), vm.MirrorMechanics(k=2.25, tau=0.3)
    mu, t_final = 0.9, 20.0
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=10.0, width=1.5)

    def q(dt):
        return vm.simulate_with_memory(mech, vm.model_time_kernel(model, mech, mu, t_final, dt),
                                       pulse, t_final).q

    ref = q(0.02 / 16)
    e1, e2 = (np.max(np.abs(q(dt) - ref[:: int(round(16 * dt / 0.02))])) for dt in (0.02, 0.01))
    assert 1.9 < np.log2(e1 / e2) < 2.1


@pytest.mark.parametrize("kind", ["lorentzian", "tabulated"])
def test_cq_weights_match_the_off_circle_quadrature(kind):
    # the weights on the unit circle, from Gamma on the real axis, against
    # the test's at rho^L = 1e-8, from Gamma's continuation into Im w > 0,
    # whole kernel less mu; at dt = 0.01 both periods span 40 time units or
    # more, so aliased lags do not show.  The Lorentzian's read 4.9e-9 of the
    # largest weight, the size of the off-circle rule's rho^L; the table's
    # 1.7e-7: above the curve's top (1000) the axis reads the tail's axis
    # value (1.0e-5 without its y^-3 term, largest at lag 0)
    model = vm.lorentzian_mirror() if kind == "lorentzian" else \
        make_tabulated_copy(omega_max=1100.0, step=1e-2, log_points=2200)
    mech, dt, n = vm.MirrorMechanics(k=2.25, tau=0.3), 1e-2, 2000
    h = vm.model_time_kernel(model, mech, 0.9, n * dt, dt).weights[: n + 1] * dt
    ref = cq_weights(model, mech, dt, n)
    ref[0] -= 0.9
    bound = 2e-8 if kind == "lorentzian" else 5e-7
    assert np.max(np.abs(h - ref)) < bound * np.max(np.abs(ref))


class _OnePoleMirror:
    """A model whose Gamma on the real axis is mu/(m tau (1 - i w)): the motional
    kernel less mu is then H(s) = m tau s Gamma{s} - mu = -mu/(s + 1)."""

    omega_scale = 1.0

    def __init__(self, mech, mu):
        self.height = mu / (mech.m * mech.tau)

    def _axis_gamma(self, y):
        return self.height / (1.0 - 1j * y)


_ONE_POLE_CASES = ([pytest.param(dt, "model", id=str(dt)) for dt in (0.1, 1e-2, 1e-3)]
                   + [pytest.param(dt, "chi curve", id=f"{dt}-chi curve") for dt in (0.1, 1e-2, 1e-3)])


@pytest.mark.parametrize("dt, source", _ONE_POLE_CASES)
def test_cq_weights_of_a_one_pole_kernel_are_its_closed_form(dt, source):
    # with delta(z) = 2 (1 - z)/(1 + z), H(delta(z)/dt) = -mu c (1 + z)/(1 - r z),
    # c = dt/(2 + dt) and r = (2 - dt)/(2 + dt): the weights are -mu c at lag 0
    # and -mu c (r^j + r^(j-1)) at lag j.  From the model, the worst lag of the
    # period, lag 0, read 6.8e-16, 6.1e-15 and 6.0e-14 of the largest weight (at
    # dt = 1e-3 the period is 40,000, three blocks of 8192 bins); the lags
    # aliased from beyond it add r^L, below 1e-17.  H(-i w) at the period's
    # middle bin, w = inf, is 0.  From the chi curve i mu w^3/(1 - i w) to pi/dt,
    # over a window of 16 time units (the same periods), they read 6.7e-4,
    # 6.0e-6 and 5.9e-8: the tail (A + B ln w + C/w)/w above the curve's top
    # misses H's 1/w^3 term, (dt/pi)^2 of it there
    mech, mu = vm.MirrorMechanics(k=0.0, tau=0.3), 0.9
    if source == "model":
        kern = vm.model_time_kernel(_OnePoleMirror(mech, mu), mech, mu, 100 * dt, dt)
        h, bound = kern.weights * dt, 1e-13
    else:
        grid = np.concatenate([[0.0], np.geomspace(1e-3, np.pi / dt, 1600)])
        curve = vm.ResponseCurve(grid, 1j * mu * grid**3 / (1.0 - 1j * grid), label="chi")
        h, bound = vm.build_time_kernel(curve, mu, window=16.0, dt=dt).weights * dt, 0.1 * dt**2
    assert h.size == {0.1: 4096, 1e-2: 4096, 1e-3: 40000}[dt]
    c, r = dt / (2.0 + dt), (2.0 - dt) / (2.0 + dt)
    lags = np.arange(1, h.size)
    exact = -mu * c * np.concatenate([[1.0], r**lags + r ** (lags - 1)])
    assert np.max(np.abs(h - exact)) <= bound * np.max(np.abs(exact))


def formula_cq_weights(model, mech, mu, dt, n):
    """The model's weights as ``model_time_kernel`` formed them before the chi
    curve shared its routine, kept as the oracle of that routine's bits."""
    size = fft_length(max(5 * n // 2, 4096, int(np.ceil(40.0 / (model.omega_scale * dt)))))
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    spectrum[0] = -mu
    for lo in range(1, size // 2, 8192):
        w = (2.0 / dt) * np.tan(np.pi / size * np.arange(lo, min(lo + 8192, size // 2)))
        motional = (mech.m * mech.tau * w) * (w * np.conj(model._axis_gamma(w)))
        spectrum[lo : lo + w.size] = 1j * motional / w - mu
    return np.fft.irfft(spectrum, size) / dt


@settings(max_examples=30, deadline=None)
@given(omega=st.floats(min_value=0.1, max_value=100.0),
       tau_omega=st.floats(min_value=1e-3, max_value=0.33),
       spring=st.floats(min_value=0.0, max_value=4.0),
       dt_omega=st.floats(min_value=1e-3, max_value=0.1),
       n=st.integers(min_value=2, max_value=30_000))
def test_cq_weights_are_bitwise_the_models_own_formula(omega, tau_omega, spring, dt_omega, n):
    # the chi curve's weights and the model's share one routine; the model's
    # path keeps its bits through it, at any Omega, tau, k, dt and run length
    model = vm.lorentzian_mirror(omega)
    mech = vm.MirrorMechanics(k=spring * omega**2, tau=tau_omega / omega)
    mu, dt = 3.0 * omega * mech.m * mech.tau, dt_omega / omega
    h = vm.model_time_kernel(model, mech, mu, n * dt, dt).weights
    assert h.tobytes() == formula_cq_weights(model, mech, mu, dt, n).tobytes()


_ONE_PATH_CASES = {
    "criterion 9": (vm.MirrorMechanics(k=2.25, tau=0.3),
                    vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=5.0, width=1.5),
                    60.0, 2e-8, 1e-7),
    "free-mass step": (vm.MirrorMechanics(k=0.0, tau=0.2),
                       vm.ForceProfile(kind="step", amplitude=1e-3, center=1.0),
                       33.0, 3e-8, 2e-4),
}


@pytest.mark.parametrize("case", _ONE_PATH_CASES)
def test_build_time_kernel_on_the_exact_chi_curve_is_the_models_cq_run(case):
    # the Lorentzian's chi curve to pi/dt through build_time_kernel, against its
    # model through model_time_kernel, at the same period: criterion 9's run reads
    # 9.2e-9 of max |q| and 3.5e-8 in W_m(end), the free mass's step drive 1.3e-8
    # and 8.1e-5 (W_m(end) is -8.0e-8 there, 1.5e-4 of W_a(end)).  With H = 0
    # above the curve's top, criterion 9's run reads 1.1e-4 in q; the band
    # spectrum read 3.6e-4, and 3.2 with the wrong sign in the step's W_m
    mech, force, t_final, q_bound, w_bound = _ONE_PATH_CASES[case]
    dt, mu = 1e-3, 3.0 * mech.m * mech.tau
    kern = make_kernel(mech, t_final, dt)
    model_kern = vm.model_time_kernel(vm.lorentzian_mirror(), mech, mu, t_final, dt)
    assert kern.n_fft == model_kern.n_fft
    traj = vm.simulate_with_memory(mech, kern, force, t_final)
    ref = vm.simulate_with_memory(mech, model_kern, force, t_final)
    w_m, w_m_ref = (vm.energy_ledger(run, mech).w_radiated[-1] for run in (traj, ref))
    assert np.max(np.abs(traj.q - ref.q)) < q_bound * np.max(np.abs(ref.q))
    assert abs(w_m - w_m_ref) < w_bound * abs(w_m_ref)


def test_memory_damped_pulse_energy_books():
    mech = vm.MirrorMechanics(k=2.25, tau=0.3)
    dt = 1e-3
    kern = make_kernel(mech, 60.0, dt)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=5.0, width=1.5)
    traj = vm.simulate_with_memory(mech, kern, pulse, 60.0)
    ledger = vm.energy_ledger(traj, mech)
    assert ledger.max_residual < 1e-6 * ledger.max_energy
    assert ledger.w_applied[-1] > 0
    assert abs(ledger.delta_energy[-1]) < 1e-6 * ledger.max_energy
    assert ledger.w_radiated[-1] == pytest.approx(ledger.w_applied[-1], rel=1e-6)


def test_memory_release_decay_monotone_envelope():
    # held at q0, released: no applied work, energy flows out monotonically
    mech = vm.MirrorMechanics(k=2.25, tau=0.3)
    dt = 2e-3
    kern = make_kernel(mech, 40.0, dt)
    traj = vm.simulate_with_memory(mech, kern, vm.ForceProfile(kind="none"), 40.0, q0=1e-3)
    ledger = vm.energy_ledger(traj, mech)
    assert np.max(np.abs(ledger.w_applied)) == 0.0
    np.testing.assert_allclose(ledger.delta_energy, -ledger.w_radiated, atol=1e-18)
    period = 2 * np.pi / mech.omega0
    idx = [np.argmin(np.abs(traj.times - k * period)) for k in range(1, 9)]
    envelope = ledger.energy[idx]
    assert np.all(np.diff(envelope) < 1e-12)


def test_memory_steady_state_matches_admittance():
    mech = vm.MirrorMechanics(k=2.25, tau=0.3)
    dt = 1e-3
    t_final = 80.0
    kern = make_kernel(mech, t_final, dt)
    h = acceleration_weights(kern)
    w1 = 1.5
    drive = vm.ForceProfile(kind="sine", amplitude=1e-3, frequency=w1)
    traj = vm.simulate_with_memory(mech, kern, drive, t_final, history_weights=h)
    mask = traj.times > t_final - 10 * 2 * np.pi / w1
    basis = np.vstack([np.sin(w1 * traj.times[mask]), np.cos(w1 * traj.times[mask])]).T
    coef, *_ = np.linalg.lstsq(basis, traj.v[mask], rcond=None)
    amp = float(np.hypot(*coef))
    expected = abs(vm.admittance(vm.lorentzian_mirror(), mech, w1)) * 1e-3
    # 5.8e-7 on the convolution-quadrature weights; the band spectrum read 1.15e-3
    assert abs(amp - expected) / expected < 2e-6


def test_fit_runaway_rejects_bounded_runs():
    mech = vm.MirrorMechanics(k=1.0, tau=0.0)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=3.0, width=0.8)
    traj = vm.simulate_perfect_mirror(mech, pulse, t_final=20.0, dt=5e-3)
    with pytest.raises(FitError):
        vm.fit_runaway_rate(traj)


def test_export_csv_formats(tmp_path):
    mech = vm.MirrorMechanics(k=1.0, tau=0.0)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=3.0, width=0.8)
    traj = vm.simulate_perfect_mirror(mech, pulse, t_final=5.0, dt=5e-3)
    ledger = vm.energy_ledger(traj, mech)
    p1 = tmp_path / "trajectory.csv"
    p2 = tmp_path / "energy.csv"
    vm.dynamics.export_simulation_csv(tmp_path, traj, ledger)
    assert p1.read_text().splitlines()[0] == "t,q,v,a,F_a,W_a,E,W_m"
    assert p2.read_text().splitlines()[0] == "t,W_a,E,delta_E,W_m,residual"
    assert len(p1.read_text().splitlines()) == len(traj.times) + 1


# distinct columns, each formatted once down the longest file: t, q, v, a,
# F_a, W_a, E, W_m and the residual, with delta_E where the run does not
# start at E = 0
_DISTINCT = {"memory": 9, "ended": 9, "displaced": 10, "perfect": 9}


@pytest.mark.parametrize("case", list(_DISTINCT))
def test_simulation_export_keeps_the_bytes_of_each_file(tmp_path, monkeypatch, case):
    mech = vm.MirrorMechanics(k=1.0, tau=0.05)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=1.0, width=0.3)
    if case == "perfect":
        traj = vm.simulate_perfect_mirror(mech, pulse, t_final=3.0, dt=1e-3)
    else:
        kernel = make_kernel(mech, 3.0, 1e-3)
        force = (lambda ts: np.where(ts < 2.0, pulse(ts), np.inf)) if case == "ended" else pulse
        traj = vm.simulate_with_memory(mech, kernel, force, 3.0,
                                       q0=0.5 if case == "displaced" else 0.0)
        assert traj.diverged == (case == "ended")
    ledger = vm.energy_ledger(traj, mech)
    assert ledger.delta_energy.tobytes() == (ledger.energy - ledger.energy[0]).tobytes()
    assert (ledger.delta_energy is ledger.energy) == (case != "displaced")

    # each file alone, from its own columns
    alone = tmp_path / "alone"
    alone.mkdir()
    vm.numerics.write_csv(alone / "trajectory.csv", "t,q,v,a,F_a,W_a,E,W_m", [
        traj.times, traj.q, traj.v, traj.a, traj.f_applied,
        ledger.w_applied, ledger.energy, ledger.w_radiated])
    vm.numerics.write_csv(alone / "energy.csv", "t,W_a,E,delta_E,W_m,residual", [
        traj.times, ledger.w_applied, ledger.energy,
        ledger.energy - ledger.energy[0], ledger.w_radiated, ledger.residual])
    formatted = []
    block = vm.numerics._format_block
    monkeypatch.setattr(vm.numerics, "_format_block",
                        lambda x: formatted.append(x.size) or block(x))
    vm.dynamics.export_simulation_csv(tmp_path, traj, ledger)
    assert sum(formatted) == _DISTINCT[case] * traj.times.size
    for path in alone.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes()


_FORCE_KINDS = ["none", "gaussian", "step", "sine"]


def drive(kind, t_final, amplitude=1e-3):
    return vm.ForceProfile(kind=kind, amplitude=amplitude, center=t_final / 3.0,
                           width=max(t_final / 10.0, 1e-3), frequency=1.3)


@settings(max_examples=40, deadline=None)
@given(
    k=st.floats(min_value=0.0, max_value=4.0),
    tau=st.floats(min_value=1e-3, max_value=0.3),
    q0=st.sampled_from([0.0, 1e-3, -1e-3]),
    kind=st.sampled_from(_FORCE_KINDS),
    steps=st.sampled_from([1, 2, 17, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 3, 1000, 3001]),
)
@example(k=4.0, tau=0.3, q0=1e-3, kind="sine", steps=20000)
@example(k=0.0, tau=0.3, q0=0.0, kind="gaussian", steps=20000)
@example(k=2.25, tau=0.1, q0=-1e-3, kind="step", steps=19999)
@example(k=0.25, tau=1e-3, q0=1e-3, kind="none", steps=12345)
@example(k=2.225073858507e-311, tau=0.25, q0=1e-3, kind="none", steps=2)  # subnormal spring
@example(k=0.0, tau=0.2, q0=0.0, kind="step", steps=20001)  # k = 0, partial node
# a free mass from a displaced start: v and q summed after the solve from q0
@example(k=0.0, tau=0.2, q0=1e-3, kind="step", steps=4099)
@example(k=0.0, tau=0.05, q0=-1e-3, kind="sine", steps=2 * _LEAF + 3)
# partial nodes of spans 4061 and 2013 take the kept 4096 and 2048 spectra
@example(k=2.25, tau=0.1, q0=1e-3, kind="gaussian", steps=12253)
# a small tau: F_m read off the step balance, k q + m a - F_a, would be 9.2e-11
# of its largest value off by cancellation; the convolution keeps 3e-15
@example(k=2.48, tau=1e-5, q0=0.0, kind="sine", steps=1000)
def test_memory_solve_matches_step_loop(k, tau, q0, kind, steps):
    dt = 1e-3
    mech = vm.MirrorMechanics(k=k, tau=tau)
    t_final = steps * dt
    kern = make_kernel(mech, max(t_final, 1.0), dt)
    force = drive(kind, t_final)
    traj = vm.simulate_with_memory(mech, kern, force, t_final, q0=q0)
    ts, q, v, a, f_mot = memory_loop(mech, kern, force, t_final, q0=q0)
    assert not traj.diverged
    assert traj.times.tobytes() == ts.tobytes()
    # relative to the largest value, but never finer than 1e-11 of the smallest
    # normal double: a subnormal spring makes subnormal accelerations, whose
    # rounding is absolute (tens of ulps of 5e-324 apart after 1000 steps)
    for new, old in ((traj.q, q), (traj.v, v), (traj.a, a), (traj.f_motional, f_mot)):
        scale = max(np.max(np.abs(old)), np.finfo(float).smallest_normal)
        assert np.max(np.abs(new - old)) <= 1e-11 * scale
    oracle = vm.Trajectory(times=ts, q=q, v=v, a=a, f_applied=traj.f_applied,
                           f_motional=f_mot, method="loop", dt=dt)
    ledger, ledger_old = vm.energy_ledger(traj, mech), vm.energy_ledger(oracle, mech)
    assert abs(ledger.max_residual - ledger_old.max_residual) <= 1e-10 * ledger_old.max_energy


def test_memory_overflow_marks_divergence():
    mech = vm.MirrorMechanics(k=1.0, tau=0.1)
    dt = 1e-3
    kern = make_kernel(mech, 2.0, dt)
    kick = vm.ForceProfile(kind="step", amplitude=1e101, center=1.0)
    traj = vm.simulate_with_memory(mech, kern, kick, 2.0)
    assert traj.diverged
    # the step turns on at t = 1 and the first state above _BLOWUP is dropped
    assert traj.t_diverged == pytest.approx(1.0, abs=1e-12)
    assert traj.t_diverged == pytest.approx(traj.times[-1] + dt, rel=1e-12)
    for series in (traj.q, traj.v, traj.a, traj.f_applied, traj.f_motional):
        assert len(series) == len(traj.times)
        assert np.all(np.isfinite(series))
    ts, q, v, a, f_mot = memory_loop(mech, kern, kick, traj.times[-1])
    for new, old in ((traj.q, q), (traj.v, v), (traj.a, a)):
        assert np.array_equal(new, old)  # all zero before the step


def test_memory_non_finite_force_ends_the_run_where_it_appears():
    mech = vm.MirrorMechanics(k=1.0, tau=0.1)
    dt = 1e-3
    kern = make_kernel(mech, 2.0, dt)

    def force(t):  # finite up to step 700, mid-leaf
        return np.where(t < 0.6995, 1e-3 * np.sin(3.0 * t), np.inf)

    traj = vm.simulate_with_memory(mech, kern, force, 2.0)
    assert traj.diverged
    assert traj.t_diverged == pytest.approx(0.7, abs=1e-12)
    assert len(traj.times) == 700
    ts, q, v, a, f_mot = memory_loop(mech, kern, force, traj.times[-1])
    for new, old in ((traj.q, q), (traj.v, v), (traj.a, a), (traj.f_motional, f_mot)):
        assert np.all(np.isfinite(new))
        assert np.max(np.abs(new - old)) <= 1e-11 * np.max(np.abs(old))


def rounding_floor(mech, force, steps, dt, y0):
    """What rounding alone may leave between two RK4 runs of ``steps`` steps from y0:
    each step may round the state by eps of its size (the start's or the drive's)
    or, below the normal range, by a spacing 2^-1074, and the later steps grow that
    at most as they grow a unit start (the array stepper's own unforced run)."""
    ts, *unit, _ = perfect_mirror_arrays(mech, vm.ForceProfile(), steps * dt, dt,
                                         1.0, 1.0, 1.0 if mech.tau else 0.0)
    growth = max(np.max(np.abs(x)) for x in unit)
    size = max(np.max(np.abs(y0)), np.max(np.abs(force(np.arange(steps + 1) * dt))))
    return steps * growth * (np.finfo(float).eps * size + 2.0**-1074)


def assert_close_to_the_array_stepper(traj, oracle, floor):
    """The recurrence's run against the array stepper's: the same times, sample count
    and divergence time, and q, v, a and F_m each within 1e-13 of its own largest
    value plus ``floor``.  Over 600 draws the largest gap is 1.2e-2 of this bound.
    Relative to the largest value alone it reaches 1.2e-12 on a run whose runaway
    part starts about 1e5 times below its start: the growth amplifies the array
    stepper's own rounding, 8e-13 off an 80-bit run of the same stages, where the
    recurrence reads 3.7e-13."""
    ts, q, v, a, f_mot, t_div = oracle
    assert traj.t_diverged == t_div
    assert traj.diverged == (t_div is not None)
    assert traj.times.tobytes() == ts.tobytes()
    for new, old in ((traj.q, q), (traj.v, v), (traj.a, a), (traj.f_motional, f_mot)):
        scale = max(np.max(np.abs(old)), np.finfo(float).smallest_normal)
        assert np.max(np.abs(new - old)) <= 1e-13 * scale + floor


@settings(max_examples=40, deadline=None)
@given(
    tau=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
    k=st.floats(min_value=0.0, max_value=4.0),
    kind=st.sampled_from(_FORCE_KINDS),
    y0=st.tuples(*[st.floats(min_value=-1e-2, max_value=1e-2)] * 3),
    steps=st.integers(min_value=1, max_value=3000),
)
@example(tau=1e-3, k=0.0, kind="none", y0=(0.0, 0.0, 1.0), steps=300)  # overflows
@example(tau=0.5, k=0.0, kind="gaussian", y0=(0.0, 0.0, 0.0), steps=20000)
@example(tau=0.0, k=1.0, kind="sine", y0=(1e-3, 0.0, 0.0), steps=20000)
# the ill-conditioned run above, and subnormal starts, from which the array
# stepper's a never grows at tau = 1e-3
@example(tau=0.1262840631726079, k=1.9229880077042578, kind="sine", steps=1609,
         y0=(0.00548209632620637, -0.0021267041401162815, -0.00960799162896781))
@example(tau=1e-3, k=0.0, kind="none", y0=(0.0, 0.0, 5e-324), steps=3000)
@example(tau=0.5, k=2.0, kind="none", y0=(5e-324, 0.0, -5e-324), steps=3000)
def test_rk4_recurrence_matches_the_array_stepper(tau, k, kind, y0, steps):
    q0, v0, a0 = y0
    if tau == 0.0:
        a0 = 0.0  # the force balance fixes the acceleration
    dt = 1e-3 if tau == 0.0 else tau / 50.0
    mech = vm.MirrorMechanics(k=k, tau=tau)
    force = drive(kind, steps * dt)
    traj = vm.simulate_perfect_mirror(mech, force, steps * dt, dt=dt, q0=q0, v0=v0, a0=a0)
    oracle = perfect_mirror_arrays(mech, force, steps * dt, dt, q0=q0, v0=v0, a0=a0)
    assert_close_to_the_array_stepper(
        traj, oracle, rounding_floor(mech, force, steps, dt, (q0, v0, a0)))


def test_rk4_recurrence_overflow_matches_the_array_stepper():
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    none = vm.ForceProfile(kind="none")
    traj = vm.simulate_perfect_mirror(mech, none, t_final=0.3, a0=1.0)
    oracle = perfect_mirror_arrays(mech, none, 0.3, mech.tau / 50.0, a0=1.0)
    assert traj.diverged and len(traj.times) == len(oracle[0]) == 11513
    assert_close_to_the_array_stepper(traj, oracle, 0.0)
