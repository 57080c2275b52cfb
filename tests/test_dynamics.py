import numpy as np
import pytest

import vacmirror as vm
from vacmirror.dispersion import acceleration_weights
from vacmirror.errors import FitError


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
    vm.dynamics.export_run_csv(p1, traj, ledger)
    vm.dynamics.export_energy_csv(p2, ledger)
    assert p1.read_text().splitlines()[0] == "t,q,v,a,F_a,W_a,E,W_m"
    assert p2.read_text().splitlines()[0] == "t,W_a,E,delta_E,W_m,residual"
    assert len(p1.read_text().splitlines()) == len(traj.times) + 1
