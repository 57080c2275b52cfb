import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vacmirror as vm
from vacmirror.dispersion import acceleration_weights
from vacmirror.dynamics import _BLOWUP, _LEAF
from vacmirror.errors import FitError


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
    """The NumPy-array RK4 stepper that the float stepper replaced, kept as its oracle."""
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


@pytest.mark.parametrize("mech,force", [
    (vm.MirrorMechanics(k=2.25, tau=0.3),
     vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=4.0, width=1.2)),
    (vm.MirrorMechanics(k=0.0, tau=0.2), vm.ForceProfile(kind="step", amplitude=1e-3, center=1.0)),
], ids=["pulse", "step"])
def test_memory_run_past_a_power_of_two_matches_a_longer_period(mech, force):
    # 33,000 steps: the period is 67,500 samples, not the 2^17 a power of two
    # would take; eight times the window puts it at 540,000
    t_final, dt = 33.0, 1e-3
    runs = []
    for window in (t_final, 8 * t_final):
        kern = make_kernel(mech, window, dt)
        traj = vm.simulate_with_memory(mech, kern, force, t_final)
        runs.append((kern.n_fft, traj.q, vm.energy_ledger(traj, mech).w_radiated[-1]))
    (n_fit, q, w_m), (n_long, q_long, w_m_long) = runs
    assert (n_fit, n_long) == (67500, 540000)
    assert np.max(np.abs(q - q_long)) < 1e-11 * np.max(np.abs(q_long))
    assert abs(w_m - w_m_long) < 1e-10 * abs(w_m_long)


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
    assert abs(amp - expected) / expected < 1e-2


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
# F_a, W_a, E, W_m and the residual, with kappa for a memory run, its own t
# where the run ended inside the kernel's window, and delta_E where the run
# does not start at E = 0
_DISTINCT = {"memory": 10, "ended": 11, "displaced": 11, "perfect": 9}


@pytest.mark.parametrize("case", list(_DISTINCT))
def test_simulation_export_keeps_the_bytes_of_each_file(tmp_path, monkeypatch, case):
    mech = vm.MirrorMechanics(k=1.0, tau=0.05)
    pulse = vm.ForceProfile(kind="gaussian", amplitude=1e-3, center=1.0, width=0.3)
    kernel = None
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
    if kernel is not None:
        kernel.to_csv(alone / "kernel.csv")
    formatted = []
    block = vm.numerics._format_block
    monkeypatch.setattr(vm.numerics, "_format_block",
                        lambda x: formatted.append(x.size) or block(x))
    vm.dynamics.export_simulation_csv(tmp_path, traj, ledger, kernel)
    rows = max(traj.times.size, 0 if kernel is None else kernel.times.size)
    assert sum(formatted) == _DISTINCT[case] * rows
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
def test_float_rk4_is_bitwise_the_array_stepper(tau, k, kind, y0, steps):
    q0, v0, a0 = y0
    if tau == 0.0:
        a0 = 0.0  # the force balance fixes the acceleration
    dt = 1e-3 if tau == 0.0 else tau / 50.0
    mech = vm.MirrorMechanics(k=k, tau=tau)
    force = drive(kind, steps * dt)
    traj = vm.simulate_perfect_mirror(mech, force, steps * dt, dt=dt, q0=q0, v0=v0, a0=a0)
    ts, q, v, a, f_mot, t_div = perfect_mirror_arrays(
        mech, force, steps * dt, dt, q0=q0, v0=v0, a0=a0
    )
    assert traj.t_diverged == t_div
    assert traj.diverged == (t_div is not None)
    for new, old in ((traj.times, ts), (traj.q, q), (traj.v, v), (traj.a, a),
                     (traj.f_motional, f_mot)):
        assert new.tobytes() == old.tobytes()


def test_float_rk4_overflow_is_bitwise_the_array_stepper():
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    none = vm.ForceProfile(kind="none")
    traj = vm.simulate_perfect_mirror(mech, none, t_final=0.3, a0=1.0)
    ts, q, v, a, f_mot, t_div = perfect_mirror_arrays(mech, none, 0.3, mech.tau / 50.0, a0=1.0)
    assert traj.diverged and t_div is not None
    assert traj.t_diverged == t_div
    assert len(traj.times) == len(ts)
    assert traj.a.tobytes() == a.tobytes() and traj.q.tobytes() == q.tobytes()
