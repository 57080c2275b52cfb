import dataclasses
import json

import numpy as np
import pytest

import vacmirror as vm
from vacmirror.analysis import (
    _real_axis_seeds,
    default_probes,
    sample_gamma_real,
)
from vacmirror.errors import (
    AdmittanceSingularityError,
    ContinuationError,
    ContourError,
    ImpedancePoleError,
    RootConvergenceError,
)

GAMMA_AT_OMEGA = 0.7918305220645259 + 0.3670525612951462j


def test_impedance_perfect_free_mass(perfect):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    for w in [0.5, 2.0, 40.0]:
        z = vm.impedance(perfect, mech, w)
        assert z == pytest.approx(-1j * w + 1e-3 * w**2, abs=1e-12)


def test_impedance_decoupled_is_reactive():
    mech = vm.MirrorMechanics(k=1.0, tau=0.0)
    model = vm.lorentzian_mirror()
    z = vm.impedance(model, mech, 0.3)
    assert z.real == pytest.approx(0.0, abs=1e-15)
    assert z == pytest.approx(1j * (1.0 / 0.3 - 0.3))


def test_impedance_lorentzian_dissipative_part(lorentzian):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    z = vm.impedance(lorentzian, mech, 1.0)
    assert z.real == pytest.approx(1e-3 * GAMMA_AT_OMEGA.real, rel=1e-8)


def test_impedance_component_decomposition(lorentzian):
    # Z_R = m tau w^2 Gamma_R, Z_I = k/w - m w + m tau w^2 Gamma_I
    mech = vm.MirrorMechanics(k=0.7, tau=1e-3)
    for w in np.geomspace(0.2, 20.0, 12):
        g = vm.gamma(lorentzian, float(w))
        z = vm.impedance(lorentzian, mech, float(w))
        scale = max(1.0, abs(z))
        assert abs(z.real - mech.m * mech.tau * w**2 * g.real) < 1e-12 * scale
        zi = mech.k / w - mech.m * w + mech.m * mech.tau * w**2 * g.imag
        assert abs(z.imag - zi) < 1e-12 * scale


def test_impedance_on_arrays_is_the_scalar_impedance(lorentzian, tabulated_copy):
    ws = np.array([0.05, 0.7, 3.0, 11.0])
    for model in (lorentzian, tabulated_copy):
        for k in (0.0, 0.5):
            mech = vm.MirrorMechanics(k=k, tau=1e-3)
            z = vm.impedance(model, mech, ws)
            assert z.shape == ws.shape
            for w, zw in zip(ws, z):
                assert zw == pytest.approx(vm.impedance(model, mech, float(w)), rel=1e-14)
    free = vm.MirrorMechanics(k=0.0, tau=1e-3)
    z = vm.impedance(lorentzian, free, np.array([0.0, 1.0]))
    assert z[0] == 0.0 and np.isfinite(z[1])
    with pytest.raises(ImpedancePoleError):
        vm.impedance(lorentzian, vm.MirrorMechanics(k=1.0), np.array([0.0, 1.0]))


def test_impedance_pole_at_zero():
    mech = vm.MirrorMechanics(k=1.0, tau=1e-3)
    with pytest.raises(ImpedancePoleError):
        vm.impedance(vm.lorentzian_mirror(), mech, 0.0)
    free = vm.MirrorMechanics(k=0.0, tau=1e-3)
    assert vm.impedance(vm.lorentzian_mirror(), free, 0.0) == 0.0


def test_admittance_inverse_and_sign(lorentzian):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    z = vm.impedance(lorentzian, mech, 1.0)
    y = vm.admittance(lorentzian, mech, 1.0)
    assert y == pytest.approx(1.0 / z)
    assert (y.real >= 0) == (z.real >= 0)


def test_admittance_resonance_guard():
    mech = vm.MirrorMechanics(k=1.0, tau=0.0)
    with pytest.raises(AdmittanceSingularityError):
        vm.admittance(vm.lorentzian_mirror(), mech, 1.0)


def test_laplace_perfect_closed_form(perfect):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    ps = np.array([10.0, 500.0, 2000.0])
    z = vm.laplace_impedance(perfect, mech, ps)
    np.testing.assert_allclose(z, ps * (1 - 1e-3 * ps), rtol=1e-13)


def test_laplace_real_axis_is_real(lorentzian):
    mech = vm.MirrorMechanics(k=0.5, tau=1e-3)
    z = vm.laplace_impedance(lorentzian, mech, np.geomspace(1e-3, 1e3, 30))
    assert np.max(np.abs(z.imag)) < 1e-10


def test_laplace_small_p_spring_pole(lorentzian):
    mech = vm.MirrorMechanics(k=2.0, tau=1e-3)
    p = 1e-6
    assert vm.laplace_impedance(lorentzian, mech, p) == pytest.approx(mech.k / p, rel=1e-5)


def test_laplace_rejects_left_half(lorentzian):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    with pytest.raises(ContinuationError):
        vm.laplace_impedance(lorentzian, mech, -1.0 + 0.5j)


def test_laplace_tabulated_needs_curve(tabulated_copy):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    with pytest.raises(ContinuationError):
        vm.laplace_impedance(tabulated_copy, mech, 1.0)
    curve = sample_gamma_real(tabulated_copy, omega_max=tabulated_copy.omega_range[1])
    z = vm.laplace_impedance(tabulated_copy, mech, 1.0, gamma_curve=curve)
    exact = vm.laplace_impedance(vm.lorentzian_mirror(), mech, 1.0)
    assert abs(z - exact) / abs(exact) < 1e-4


def test_count_rhp_zeros_dichotomy(perfect, lorentzian):
    free = vm.MirrorMechanics(k=0.0, tau=1e-3)
    assert vm.count_rhp_zeros(perfect, free) == 1
    assert vm.count_rhp_zeros(lorentzian, free) == 0
    strong = vm.MirrorMechanics(k=0.0, tau=1.0)
    assert vm.count_rhp_zeros(lorentzian, strong) >= 1


def test_count_invariant_under_refinement(perfect):
    free = vm.MirrorMechanics(k=0.0, tau=1e-3)
    contour = vm.default_contour(free)
    a = vm.count_rhp_zeros(perfect, free, contour, n_edge=96)
    b = vm.count_rhp_zeros(perfect, free, contour, n_edge=192)
    assert a == b == 1


def test_contour_error_on_zero_on_contour(perfect):
    free = vm.MirrorMechanics(k=0.0, tau=1e-3)
    # right edge passes exactly through the zero at p = 1/tau
    contour = vm.Rectangle(re_min=1e-6, re_max=1.0 / free.tau, im_max=10.0)
    with pytest.raises(ContourError):
        vm.count_rhp_zeros(perfect, free, contour)


def test_refine_root_perfect(perfect):
    free = vm.MirrorMechanics(k=0.0, tau=1e-3)
    root, resid = vm.refine_root(perfect, free, 0.8 / free.tau)
    assert abs(root - 1.0 / free.tau) / (1.0 / free.tau) < 1e-8
    assert resid < 1e-10 * free.m * abs(root)


def test_refine_root_decoupled_fails():
    mech = vm.MirrorMechanics(k=1.0, tau=0.0)
    with pytest.raises(RootConvergenceError):
        vm.refine_root(vm.lorentzian_mirror(), mech, 0.5 + 0.1j)


def test_real_root_above_mass_boundary(lorentzian):
    # mu/m = 3: bisection oracle on the real axis, then secant refinement
    mech = vm.MirrorMechanics(k=0.0, tau=1.0)
    a, b = 1e-2, 1e2
    fa = vm.laplace_impedance(lorentzian, mech, a).real
    fb = vm.laplace_impedance(lorentzian, mech, b).real
    assert fa * fb < 0
    for _ in range(60):
        m = np.sqrt(a * b)
        fm = vm.laplace_impedance(lorentzian, mech, m).real
        if fa * fm <= 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    oracle = 0.5 * (a + b)
    root, _ = vm.refine_root(lorentzian, mech, oracle)
    assert abs(root.imag) < 1e-10
    assert root.real == pytest.approx(oracle, rel=1e-6)
    seeds = _real_axis_seeds(lorentzian, mech, 1e2)
    assert any(abs(s - oracle) / oracle < 1e-3 for s in seeds)


def test_passivity_scan_lorentzian(lorentzian):
    for tau in (1e-3, 1.0 / 3.0):
        mech = vm.MirrorMechanics(k=0.0, tau=tau)
        scan = vm.passivity_check(lorentzian, mech)
        assert scan.passive
        assert scan.min_re_scaled >= -1e-9
        assert scan.n_probes >= 1000


def test_passivity_perfect_fails_beyond_pole(perfect):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    probes = default_probes(p_min=1e-3, p_max=2e4)
    scan = vm.passivity_check(perfect, mech, probes)
    assert not scan.passive
    assert scan.min_re < 0
    assert scan.at_p.real > 1.0 / mech.tau / 2


def test_motional_term_alone_not_passive(lorentzian):
    # -chi{p}/p = -m tau p^2 Gamma{p} has negative real part near p -> 0+
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    for p in [1e-3, 1e-2]:
        motional = -mech.m * mech.tau * p**2 * vm.gamma_samples(lorentzian, 1j * p)
        assert motional.real < 0


def test_spectral_matches_laplace(lorentzian):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    curve = sample_gamma_real(lorentzian, omega_max=1e3)
    mu = vm.induced_mass(mech, vm.reflection_cutoff(lorentzian))
    for p in np.geomspace(1e-2, 1e2, 12):
        direct = vm.laplace_impedance(lorentzian, mech, complex(p))
        spectral = vm.spectral_impedance(lorentzian, mech, complex(p),
                                         gamma_curve=curve, mu=mu)
        assert abs(spectral - direct) / abs(direct) < 1e-4


def test_spectral_bare_mass_limit(lorentzian):
    mech = vm.MirrorMechanics(k=0.0, tau=0.0)
    z = vm.spectral_impedance(lorentzian, mech, 2.0, mu=0.0)
    assert z == pytest.approx(2.0 * mech.m, rel=1e-12)


def test_spectral_perfect_divergent(perfect):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    grid = np.geomspace(1e-2, 1e3, 400)
    curve = vm.ResponseCurve(grid, np.ones_like(grid) + 0j, label="gamma")
    with pytest.raises(vm.CutoffDivergenceError):
        vm.spectral_impedance(perfect, mech, 1.0, gamma_curve=curve)


def test_spectral_integrand_positivity_identity():
    # Re[(1 - i p rho)/(p - i rho)] = p (1 + rho^2)/(p^2 + rho^2) for real p
    rng = np.random.default_rng(3)
    p = rng.uniform(0.1, 10.0, 20)
    rho = rng.uniform(-20.0, 20.0, 20)
    lhs = ((1 - 1j * p * rho) / (p - 1j * rho)).real
    rhs = p * (1 + rho**2) / (p**2 + rho**2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
    assert np.all(lhs > 0)


def test_stability_report_serialization(tmp_path, perfect):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    report = vm.stability_report(perfect, mech)
    path = tmp_path / "stability.json"
    report.to_json(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {
        "model", "tau_omega", "k_over_m", "omega_C", "mu_over_m",
        "rhp_zero_count", "roots", "passive", "min_ReZ",
    }
    assert doc["rhp_zero_count"] == 1
    assert doc["omega_C"] is None  # divergent cutoff
    assert not doc["passive"]
    assert doc["roots"][0]["re"] == pytest.approx(1000.0, rel=1e-8)
    assert set(doc["min_ReZ"]) == {"value", "p_re", "p_im"}
    # a non-finite number fails loudly instead of becoming invalid JSON
    broken = dataclasses.replace(report, min_re_z={**report.min_re_z, "value": float("nan")})
    with pytest.raises(ValueError, match="JSON"):
        broken.to_json()


@pytest.mark.parametrize("tau", [1e-3, 0.1, 1.0, 5.0])
@pytest.mark.parametrize("k", [0.0, 0.5, 4.0])
def test_perfect_mirror_root_from_the_real_axis_scan(perfect, tau, k):
    # the scan lands exactly on the root at tau = 1, k = 0 (p = 1) and at
    # tau = 5, k = 4 (5 p^3 - p^2 - 4 = 0 at p = 1): one seed, not two
    mech = vm.MirrorMechanics(k=k, tau=tau)
    report = vm.stability_report(perfect, mech)
    assert report.rhp_zero_count == 1
    (root, _), = report.roots
    expect, _ = vm.refine_root(perfect, mech, 0.8 / tau)
    assert abs(root - expect) <= 1e-12 * abs(expect)


def test_real_axis_seeds_take_an_exact_zero_once(perfect):
    mech = vm.MirrorMechanics(k=0.0, tau=1.0)
    ps = np.geomspace(1e-6, 10.0, 400)
    assert 1.0 in ps  # the scan hits the root p = 1/tau exactly
    assert _real_axis_seeds(perfect, mech, 10.0) == [1.0]
