from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vacmirror as vm
from vacmirror.dispersion import _cauchy_sum, acceleration_weights
from vacmirror.numerics import cubic_cauchy, fft_length
from vacmirror.errors import (
    ContinuationError,
    FrequencyRangeError,
    RegularizationError,
)

GAMMA_AT_OMEGA = 0.7918305220645259 + 0.3670525612951462j
GAMMA_AT_I_OMEGA = 6 * (1.5 - 2 * np.log(2.0))


@pytest.fixture(scope="module")
def gamma_r_curve():
    grid = np.linspace(0.0, 400.0, 4001)
    return vm.ResponseCurve(grid, vm.lorentzian_gamma(grid).real, label="gamma_R")


def test_kk_reconstruct_at_omega(gamma_r_curve):
    rec = vm.kk_reconstruct(gamma_r_curve, 1.0)
    assert rec.real == pytest.approx(GAMMA_AT_OMEGA.real, abs=1e-9)
    assert rec.imag == pytest.approx(GAMMA_AT_OMEGA.imag, abs=1e-4)


def test_kk_reconstruct_sweep(gamma_r_curve):
    probes = np.linspace(0.1, 5.0, 50)
    exact = vm.lorentzian_gamma(probes)
    worst = max(
        abs(vm.kk_reconstruct(gamma_r_curve, w).imag - e.imag)
        for w, e in zip(probes, exact)
    )
    assert worst < 1e-3


def test_kk_reconstruct_odd_in_frequency(gamma_r_curve):
    rec_pos = vm.kk_reconstruct(gamma_r_curve, 2.0)
    rec_neg = vm.kk_reconstruct(gamma_r_curve, -2.0)
    assert rec_neg == pytest.approx(np.conj(rec_pos))


def test_kk_even_bump_vanishing_imag_at_center():
    # an even real input gives odd imaginary output: exactly 0 at the
    # center, linear nearby
    grid = np.linspace(0.0, 60.0, 3001)
    curve = vm.ResponseCurve(grid, np.exp(-grid**2), label="bump")
    assert vm.kk_reconstruct(curve, 0.0).imag == 0.0
    small = vm.kk_reconstruct(curve, 1e-4).imag
    smaller = vm.kk_reconstruct(curve, 5e-5).imag
    assert abs(small) < 1e-3
    assert abs(smaller) == pytest.approx(abs(small) / 2, rel=1e-2)


def test_kk_range_error(gamma_r_curve):
    with pytest.raises(FrequencyRangeError):
        vm.kk_reconstruct(gamma_r_curve, 500.0)


def test_kk_reconstruct_array_is_its_scalar_calls(gamma_r_curve):
    w = np.array([[0.0, -0.0, 1.0, -1.0], [2.5, -3.7, 0.1, 399.9]])
    rec = vm.kk_reconstruct(gamma_r_curve, w)
    assert rec.shape == w.shape and rec.dtype == complex
    each = np.array([vm.kk_reconstruct(gamma_r_curve, float(x)) for x in w.ravel()])
    assert rec.ravel().tobytes() == each.tobytes()
    assert vm.kk_reconstruct(gamma_r_curve, np.array([])).shape == (0,)


def test_kk_reconstruct_array_on_a_grid_above_zero():
    # a bump on a 0.2/w^2 decay: the curve's tail closes the transform
    grid = np.geomspace(0.05, 60.0, 500)
    curve = vm.ResponseCurve(grid, np.exp(-grid**2) + 0.2 / (1.0 + grid**2), label="bump")
    a, b, c, top = astuple(curve.tail)  # reads 0.2/w^2 at the grid's top
    assert a + b * np.log(top) + c / top == pytest.approx(0.2, rel=1e-2) and abs(b) < 1e-2
    w = np.array([-7.0, 0.3, 1.0, -0.06])
    each = np.array([vm.kk_reconstruct(curve, x) for x in w])
    assert vm.kk_reconstruct(curve, w).tobytes() == each.tobytes()
    with pytest.raises(FrequencyRangeError):
        vm.kk_reconstruct(curve, np.array([1.0, 0.0]))  # 0 lies below this grid


@pytest.mark.parametrize("bad", [500.0, -400.0, 400.0, np.nan])
def test_kk_reconstruct_array_refuses_any_element_out_of_range(gamma_r_curve, bad):
    with pytest.raises(FrequencyRangeError, match="outside grid interior"):
        vm.kk_reconstruct(gamma_r_curve, np.array([1.0, bad, 2.0]))


def test_kk_reconstruct_is_the_continuations_limit_on_the_axis():
    # Sokhotski-Plemelj: Gamma(w + i eps) from continue_upper_half tends to
    # kk_reconstruct(w) like eps |Gamma'|, and |Gamma'| <= 1/2 here: within eps
    # at eps = 1e-6, 1e-9 and 1e-12, on knots, between them and at both signs;
    # the real part is the curve's spline
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 350)])
    curve = vm.ResponseCurve(grid, vm.lorentzian_gamma(grid).real, label="gamma_R")
    w = np.concatenate([grid[1:-1:37], np.sqrt(grid[1:-2:41] * grid[2:-1:41]), [0.5, 999.0]])
    w = np.concatenate([w, -w])
    rec = vm.kk_reconstruct(curve, w)
    np.testing.assert_allclose(rec.real, curve._real_spline(np.abs(w)), rtol=1e-15, atol=0.0)
    for eps in (1e-6, 1e-9, 1e-12):
        assert np.max(np.abs(vm.continue_upper_half(curve, w + 1j * eps) - rec)) < eps


def _two_call_cauchy_sum(curve, w):
    """The sum as two ``cubic_cauchy`` calls, at w and at -w: the one-call form's oracle."""
    x, c = curve._real_spline.x, curve._real_spline.c
    return cubic_cauchy(x, c, w) - cubic_cauchy(x, c, -w) + curve.tail.cauchy(w)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 600), g0=st.sampled_from([0.0, 1e-3, 0.5]), seed=st.integers(0, 2**32 - 1),
       knots=st.lists(st.integers(1, 598), max_size=12),
       fractions=st.lists(st.floats(1e-9, 1.0, exclude_max=True), max_size=12),
       upper=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-9, 1e3)), max_size=12))
@example(n=600, g0=0.0, seed=1, knots=list(range(1, 597, 50)), fractions=[0.3] * 12,
         upper=[(1.0, 1e-9)] * 12)
def test_cauchy_sum_in_one_call_is_its_two_calls(n, g0, seed, knots, fractions, upper):
    # w and -w summed in one call, bitwise the two calls, as each row of the sum
    # stands alone: real w on inner knots and inside pieces, complex w in Im w > 0,
    # on curves of 4 to 600 nodes (at 600 a block of _PV_BLOCK values holds 13 rows,
    # so 2 x 24 real w span four blocks)
    rng = np.random.default_rng(seed)
    x = g0 + np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 2.0, n - 1))])
    curve = vm.ResponseCurve(x, rng.uniform(-10.0, 10.0, n))
    real = np.array([x[k] for k in knots if k < n - 1]
                    + [x[0] + u * (x[-1] - x[0]) for u in fractions])
    real = real[(real > x[0]) & (real < x[-1])]
    complex_w = np.array([complex(a, b) for a, b in upper], dtype=complex)
    for w in (real, complex_w):
        assert _cauchy_sum(curve, w).tobytes() == _two_call_cauchy_sum(curve, w).tobytes()


def test_continue_upper_half_matches_closed_form(gamma_r_curve):
    est = vm.continue_upper_half(gamma_r_curve, 1j)
    assert abs(est - GAMMA_AT_I_OMEGA) / GAMMA_AT_I_OMEGA < 1e-5
    est2 = vm.continue_upper_half(gamma_r_curve, 1.0 + 1.0j)
    exact = vm.lorentzian_gamma(1.0 + 1.0j)
    assert abs(est2 - exact) / abs(exact) < 1e-5


def test_continue_far_field_tail(gamma_r_curve):
    w = 1e6j
    est = vm.continue_upper_half(gamma_r_curve, w)
    # Gamma ~ omega_C / (-i w) = 3e-6 here
    assert est.real == pytest.approx(3e-6, rel=2e-2)
    assert abs(est.imag) < 1e-9


def test_continue_schwarz_reflection(gamma_r_curve):
    w = 1.0 + 1.0j
    left = vm.continue_upper_half(gamma_r_curve, -np.conj(w))
    right = np.conj(vm.continue_upper_half(gamma_r_curve, w))
    assert left == pytest.approx(right)


def test_continue_rejects_lower_half(gamma_r_curve):
    with pytest.raises(ContinuationError):
        vm.continue_upper_half(gamma_r_curve, 1.0 - 0.2j)


def test_maximum_principle_spot_check(gamma_r_curve):
    # |Gamma| inside the half plane stays below its boundary maximum
    seg = [vm.continue_upper_half(gamma_r_curve, x + 0.5j) for x in np.linspace(-3, 3, 21)]
    boundary = np.abs(vm.lorentzian_gamma(np.linspace(-6, 6, 400) + 0.0j))
    assert max(np.abs(seg)) <= boundary.max() + 1e-9


@pytest.mark.parametrize("omega", [1.0, 4.0])
def test_high_frequency_sum_rule_gives_three_omega(omega):
    # Kramers-Kronig: Im Gamma(w) -> omega_C / w at large w, and the
    # single-pole mirror has omega_C = 3 Omega exactly
    w = 1e6
    assert w * vm.gamma_samples(vm.lorentzian_mirror(omega), w).imag == pytest.approx(
        3.0 * omega, rel=1e-4)


@pytest.mark.parametrize("bottom", [0.0, 0.1])
def test_continue_upper_half_array_is_the_per_point_rule(bottom):
    # one call for all of w is, bit for bit, the per-point calls: on the
    # imaginary axis, where Z{p} reads it, and off it; a grid above 0 is
    # led by a constant piece at its edge value
    grid = np.concatenate([[bottom], np.geomspace(max(bottom, 1e-3) * 1.01, 1e3, 1400)])
    curve = vm.ResponseCurve(grid, vm.lorentzian_gamma(grid).real, label="gamma_R")
    assert astuple(curve.tail)[:3] != (0.0, 0.0, 0.0)
    y = np.geomspace(1e-6, 1e5, 120)
    for w in (1j * y, y * np.exp(1j * np.linspace(0.1, np.pi - 0.1, y.size))):
        each = np.array([vm.continue_upper_half(curve, x) for x in w])
        assert vm.continue_upper_half(curve, w).tobytes() == each.tobytes()
    if bottom == 0.0:
        # 1.5e-8 at most, far above the curve's top, where Gamma ~ omega_C/y
        # reads the fitted tail's share of omega_C
        exact = vm.lorentzian_gamma(1j * y)
        rel = np.abs(vm.continue_upper_half(curve, 1j * y) - exact) / np.abs(exact)
        assert np.max(rel) < 1e-7


def _chi_curve(mech, omega_max, points=1600):
    grid = np.concatenate([[0.0], np.geomspace(1e-3, omega_max, points)])
    chi = 1j * mech.m * mech.tau * grid**3 * vm.lorentzian_gamma(grid)
    return vm.ResponseCurve(grid, chi, label="chi")


def test_build_time_kernel_basics():
    # the weights sum to H_0 = -mu (the static-mass sum rule) to rounding, and
    # their period is the least even 2^a 3^b 5^c >= 5/2 of the window's steps,
    # 4096 at least, with no floor in time units
    mech = vm.MirrorMechanics(tau=0.3, k=2.25)
    dt = 2e-3
    curve = _chi_curve(mech, np.pi / dt)
    mu = 0.9
    kernel = vm.build_time_kernel(curve, mu, window=30.0, dt=dt)
    assert kernel.n_fft == kernel.weights.size == fft_length(5 * 15000 // 2) == 37500
    assert acceleration_weights(kernel) is kernel.weights
    assert np.sum(kernel.weights) * dt == pytest.approx(-mu, rel=1e-14)
    assert vm.build_time_kernel(curve, mu, window=1.0, dt=dt).n_fft == 4096
    # a window of fewer than two steps, still a ValueError to library callers
    with pytest.raises(vm.KernelWindowError, match="two steps"):
        vm.build_time_kernel(curve, mu, window=1.4 * dt, dt=dt)
    assert issubclass(vm.KernelWindowError, ValueError)


def test_build_time_kernel_wrong_mass_rejected():
    mech = vm.MirrorMechanics(tau=0.3, k=2.25)
    dt = 2e-3
    curve = _chi_curve(mech, np.pi / dt)
    with pytest.raises(RegularizationError):
        vm.build_time_kernel(curve, 0.0, window=30.0, dt=dt)


def test_build_time_kernel_perfect_mirror_rejected():
    # chi = i m tau w^3 admits no decaying mass subtraction
    mech = vm.MirrorMechanics(tau=1e-3)
    dt = 2e-3
    grid = np.concatenate([[0.0], np.geomspace(1e-3, np.pi / dt, 1200)])
    chi = 1j * mech.m * mech.tau * grid**3
    curve = vm.ResponseCurve(grid, chi, label="chi")
    with pytest.raises(RegularizationError):
        vm.build_time_kernel(curve, 3e-3, window=30.0, dt=dt)


def test_time_kernel_csv_header(tmp_path):
    mech = vm.MirrorMechanics(tau=0.3, k=2.25)
    dt = 2e-3
    kernel = vm.build_time_kernel(_chi_curve(mech, np.pi / dt), 0.9, window=10.0, dt=dt)
    path = tmp_path / "kernel.csv"
    kernel.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# mu_subtracted = 9.00000000000e-01"
    assert lines[1] == "# dt = 2.00000000000e-03"
    assert lines[2] == "t,h"
    assert len(lines) == 3 + kernel.n_fft
    t, h = np.loadtxt(path, delimiter=",", skiprows=3).T
    assert t[0] == 0.0 and t[-1] == pytest.approx((kernel.n_fft - 1) * dt, rel=1e-11)
    assert np.max(np.abs(h - kernel.weights)) <= 1e-11 * np.max(np.abs(kernel.weights))


def test_acceleration_weights_sum_rule():
    mech = vm.MirrorMechanics(tau=0.3, k=2.25)
    dt = 2e-3
    mu = 0.9
    kernel = vm.build_time_kernel(_chi_curve(mech, np.pi / dt), mu, window=30.0, dt=dt)
    h = acceleration_weights(kernel)
    # integral of h = -mu (the static-mass sum rule)
    assert np.sum(h) * dt == pytest.approx(-mu, rel=1e-14)
    # the transfer of the weights at w1 is H at (2/dt) tan(w1 dt/2), where the
    # trapezoidal quadrature maps w1: 5.7e-8 relative off the closed form (the
    # band spectrum's transfer was held to 5e-3 at w1 itself)
    w1 = 1.5
    transfer = dt * np.sum(h * np.exp(1j * w1 * dt * np.arange(h.size)))
    w = (2.0 / dt) * np.tan(0.5 * w1 * dt)
    expect = -1j * mech.m * mech.tau * w * vm.lorentzian_gamma(w) - mu
    assert abs(transfer - expect) / abs(expect) < 2e-7


@pytest.mark.parametrize("tau, dt", [(0.3, 2e-3), (0.25, 1e-3), (1e-3, 1e-3)])
def test_acceleration_weights_low_bins_are_the_band_spectrum(tau, dt):
    # h is the inverse transform of conj H, H = -(chi + mu w^2)/w^2, at the
    # bins w_k = (2/dt) tan(pi k/L); a forward transform of h gives that back to
    # rounding at the lowest bins, where the division by w^2 magnifies any
    # error.  Against the closed form the curve's bins read 6.0e-11, its spline,
    # and the bins above its top 1.2e-3, the fitted tail (A + B ln w + C/w)/w
    # missing the ln(w)/w^2 term of the Lorentzian's H
    mech = vm.MirrorMechanics(tau=tau, k=0.5)
    mu = 3.0 * mech.m * tau
    curve = _chi_curve(mech, np.pi / dt)
    kernel = vm.build_time_kernel(curve, mu, window=30.0, dt=dt)
    size = kernel.n_fft
    spectrum = np.conj(np.fft.rfft(acceleration_weights(kernel)))[1 : size // 2] * dt
    w = (2.0 / dt) * np.tan(np.pi / size * np.arange(1, size // 2))
    low = w[:5]
    expect = -(curve(low) + mu * low**2) / low**2
    assert np.max(np.abs(spectrum[:5] - expect) / np.abs(expect)) < 1e-14
    exact = -1j * mech.m * tau * w * vm.lorentzian_gamma(w) - mu
    rel = np.abs(spectrum - exact) / np.abs(exact)
    inside = w <= curve.grid[-1]
    assert np.max(rel[inside]) < 2e-10
    assert np.max(rel[~inside]) < 2e-3


def test_consistency_check_lorentzian(lorentzian):
    mech = vm.MirrorMechanics(tau=1e-3)
    report = vm.consistency_check(lorentzian, mech, n_fft=1024, dt=0.1)
    assert report.defect < 1e-2
    refined = vm.consistency_check(lorentzian, mech, n_fft=2048, dt=0.1)
    assert refined.defect <= report.defect


def test_consistency_check_decoupled_is_zero(lorentzian):
    mech = vm.MirrorMechanics(tau=0.0)
    report = vm.consistency_check(lorentzian, mech, n_fft=256, dt=0.1)
    assert report.defect == 0.0
