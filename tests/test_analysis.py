import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import vacmirror as vm
from vacmirror.analysis import (
    _axis_impedance,
    _real_axis_seeds,
    default_probes,
    sample_gamma_real,
)
from vacmirror.errors import (
    AdmittanceSingularityError,
    ContinuationError,
    ContourError,
    CutoffDivergenceError,
    ImpedancePoleError,
    RootConvergenceError,
)

from conftest import make_blaschke_table, make_tabulated_copy

GAMMA_AT_OMEGA = 0.7918305220645259 + 0.3670525612951462j


@pytest.fixture(scope="module")
def table_1100():
    """The benchmark's table of the Lorentzian to omega = 1100, coarser head."""
    return make_tabulated_copy(omega_max=1100.0, step=1e-2, log_points=2200)


def rectangle_count(model, mech, re_max, n_edge=128):
    """Zeros of Z{p} inside [1e-6, re_max] x [-re_max, re_max] by the argument
    principle on the rectangle's boundary: the oracle of the imaginary-axis walk
    wherever the rectangle holds the zero.

    Adaptive sampling, in at most 40 bisection rounds, until every wrapped
    phase step stays below pi/2; a zero on the boundary or a winding far from
    an integer raises ContourError.
    """
    def wrap(d):
        return (d + np.pi) % (2.0 * np.pi) - np.pi

    lo = 1e-6
    res = np.geomspace(lo, re_max, n_edge)
    mags = np.geomspace(lo, re_max, n_edge // 2)
    ims = np.concatenate([-mags[::-1], [0.0], mags])
    pts = np.concatenate([res - 1j * re_max, re_max + 1j * ims[1:],
                          res[::-1][1:] + 1j * re_max, lo + 1j * ims[::-1][1:]])
    pts = np.append(pts, pts[0])
    vals = np.atleast_1d(vm.laplace_impedance(model, mech, pts))
    for _ in range(40):
        bad = np.abs(wrap(np.diff(np.angle(vals)))) >= 0.5 * np.pi
        if not bad.any():
            break
        idx = np.nonzero(bad)[0]
        mids = 0.5 * (pts[idx] + pts[idx + 1])
        pts = np.insert(pts, idx + 1, mids)
        vals = np.insert(vals, idx + 1, vm.laplace_impedance(model, mech, mids))
    else:
        raise ContourError("could not resolve phase steps below pi/2")
    scale = mech.m * np.abs(pts) + mech.k / np.abs(pts)
    if np.min(np.abs(vals) / scale) < 1e-9:
        raise ContourError("a zero sits on the rectangle")
    turns = wrap(np.diff(np.angle(vals))).sum() / (2.0 * np.pi)
    count = int(round(turns))
    if abs(turns - count) > 0.25:
        raise ContourError(f"winding {turns:.3f} is not close to an integer")
    return count


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


def test_laplace_tabulated_continues_its_cached_curve(tabulated_copy):
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    z = vm.laplace_impedance(tabulated_copy, mech, 1.0)
    curve = tabulated_copy.gamma_curve
    assert tabulated_copy.gamma_curve is curve  # sampled once
    top = tabulated_copy.omega_range[1]
    np.testing.assert_array_equal(curve.values, sample_gamma_real(tabulated_copy, top).values)
    exact = vm.laplace_impedance(vm.lorentzian_mirror(), mech, 1.0)
    assert abs(z - exact) / abs(exact) < 1e-4


def test_count_rhp_zeros_dichotomy(perfect, lorentzian):
    free = vm.MirrorMechanics(k=0.0, tau=1e-3)
    assert vm.count_rhp_zeros(perfect, free) == 1
    assert vm.count_rhp_zeros(lorentzian, free) == 0
    strong = vm.MirrorMechanics(k=0.0, tau=1.0)
    assert vm.count_rhp_zeros(lorentzian, strong) >= 1


def test_lorentzian_counts_its_zero_at_a_huge_spring(lorentzian):
    # mu/m = 1.2: the walk reaches y ~ 1e109, where Gamma must still read 3 i/y
    assert vm.count_rhp_zeros(lorentzian, vm.MirrorMechanics(k=1e190, tau=0.4)) == 1


@pytest.mark.parametrize("kind", ["lorentzian", "tabulated"])
def test_count_rhp_zeros_needs_no_curve(lorentzian, table_1100, kind):
    model = lorentzian if kind == "lorentzian" else table_1100
    for tau, k, expect in [(1e-3, 0.0, 0), (0.2, 0.0, 0), (0.3, 0.0, 0), (0.2, 4.0, 0),
                           (0.34, 0.0, 1), (0.35, 0.0, 1), (0.4, 0.0, 1), (1.0, 0.0, 1),
                           (0.35, 1.0, 1), (0.0, 0.0, 0), (0.0, 1.0, 0),
                           (1e-3, 1e-20, 0), (0.35, 1e-20, 1)]:
        assert vm.count_rhp_zeros(model, vm.MirrorMechanics(k=k, tau=tau)) == expect, (tau, k)


@pytest.mark.parametrize("tau", [1e-16, 1e-6, 1e-3, 0.1, 1.0, 50.0, 1e8])
@pytest.mark.parametrize("k", [0.0, 1e-20, 0.5, 4.0])
def test_count_perfect_mirror_one_runaway(perfect, tau, k):
    assert vm.count_rhp_zeros(perfect, vm.MirrorMechanics(k=k, tau=tau)) == 1


@pytest.mark.parametrize("omega,k", [(1.0, 1e-20), (1.0, 1e30), (1e-10, 0.0), (1e10, 0.0)])
@pytest.mark.parametrize("tau_omega", [1e-3, 0.2, 0.4])
def test_walk_span_follows_the_scales_of_z(omega, k, tau_omega):
    # omega_0 or Omega far from 1: the walk still starts where Z ~ k/p or m p
    # and ends where Z ~ (m - mu) p, so the count stays [mu > m]
    mech = vm.MirrorMechanics(k=k, tau=tau_omega / omega)
    assert vm.count_rhp_zeros(vm.lorentzian_mirror(omega), mech) == int(tau_omega > 1.0 / 3.0)


def test_count_decoupled_is_zero_with_a_zero_on_the_axis(lorentzian, perfect):
    # tau = 0: Z = k/p + m p, zero at p = i omega_0 on the axis for k > 0; a
    # transparent table (r = 0, s = 1, Gamma = 0) has the same Z at any tau
    clear = vm.tabulated_mirror(np.linspace(0.0, 50.0, 60), np.zeros(60), np.ones(60))
    for k in (0.0, 1.0, 4.0):
        for model in (lorentzian, perfect, clear):
            assert vm.count_rhp_zeros(model, vm.MirrorMechanics(k=k, tau=0.0)) == 0
        assert vm.count_rhp_zeros(clear, vm.MirrorMechanics(k=k, tau=0.01)) == 0


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_contour_error_at_the_marginal_mass(lorentzian, k):
    # mu = m at tau Omega = 1/3: Z grows like log p, the winding is 1/2
    with pytest.raises(ContourError, match="not close to an integer"):
        vm.count_rhp_zeros(lorentzian, vm.MirrorMechanics(k=k, tau=1.0 / 3.0))


def test_rectangle_oracle_misses_the_distant_zero(lorentzian):
    # mu/m = 1.05: the zero at p ~ 176.8 lies outside the rectangle of side
    # 10 omega_C; the walk over the whole half plane counts it
    mech = vm.MirrorMechanics(k=0.0, tau=0.35)
    assert rectangle_count(lorentzian, mech, 10.0 * vm.reflection_cutoff(lorentzian)) == 0
    assert rectangle_count(lorentzian, mech, 400.0) == 1
    assert vm.count_rhp_zeros(lorentzian, mech) == 1


@dataclasses.dataclass(frozen=True)
class GainMirror(vm.MirrorModel):
    """Gamma = -Gamma_lorentzian: Re Z(i y) < 0 at every y, so every phase
    step of the walk is wrapped and refined."""

    kind = "gain"

    def _r(self, w):  # Gamma[0] = r[0]^2 = -1, read by the Gamma curve
        return np.full(np.shape(w), 1j)

    def _gamma(self, w):
        return -np.asarray(vm.lorentzian_gamma(w))


@pytest.mark.parametrize("tau", [1e-3, 0.5, 2.0])
@pytest.mark.parametrize("k,expect", [(0.0, 0), (1.0, 2)])
def test_walk_wraps_the_steps_where_re_z_is_negative(tau, k, expect):
    # negative damping pushes the oscillator's pair of zeros into Re p > 0
    mech = vm.MirrorMechanics(k=k, tau=tau)
    assert vm.count_rhp_zeros(GainMirror(), mech) == expect
    assert rectangle_count(GainMirror(), mech, 1e3) == expect


def test_gain_mirror_without_a_zero_is_not_passive():
    # no zero in Re p > 0, but Re Z(i y) = m tau y^2 Gamma_R < 0 on the axis:
    # Re Z(i y)/(m y) reaches -1.1e-3 near y = 3, while the log-polar probes,
    # which never come that close to the axis, all see Re Z{p} > 0
    mech = vm.MirrorMechanics(k=0.0, tau=1e-3)
    report = vm.stability_report(GainMirror(), mech)
    assert report.rhp_zero_count == 0
    assert not report.passive
    _, y, z = vm.analysis.axis_walk(GainMirror(), mech)
    scaled = z.real / (mech.m * y)
    assert scaled.min() == pytest.approx(-1.13e-3, rel=1e-2)
    assert 1.0 < y[np.argmin(scaled)] < 10.0
    assert vm.passivity_check(GainMirror(), mech).passive


def test_gain_mirror_cutoff_says_its_gamma_r_is_negative():
    # Gamma_R = -6 (ln w - 1)/w^2 < 0 on the whole top decade: its log has no
    # slope, where the values clipped to 1e-300 read "decays like w^0.00"
    with pytest.raises(CutoffDivergenceError) as err:
        vm.reflection_cutoff(GainMirror())
    message = str(err.value)
    assert "not positive on the top decade [100, 1000]" in message
    assert "decays like" not in message


_TAU_OMEGA = st.floats(-3.0, 0.0).map(lambda e: 10.0**e)
_SPRING = st.one_of(st.just(0.0), st.floats(0.25, 4.0))


@settings(max_examples=60, deadline=None)
@given(tau_omega=_TAU_OMEGA, k=_SPRING, perfect_mirror=st.booleans())
def test_walk_matches_the_rectangle_oracle(lorentzian, perfect, tau_omega, k, perfect_mirror):
    # the rectangle reaches 10 times the largest scale of Z, and holds the
    # runaway zero once |mu/m - 1| >= 0.25
    mech = vm.MirrorMechanics(k=k, tau=tau_omega)
    if perfect_mirror:
        model, omega_c = perfect, 0.0
    else:
        model, omega_c = lorentzian, vm.reflection_cutoff(lorentzian)
        assume(abs(3.0 * tau_omega - 1.0) >= 0.25)
    re_max = 10.0 * max(1.0, 1.0 / tau_omega, omega_c, mech.omega0)
    assert vm.count_rhp_zeros(model, mech) == rectangle_count(model, mech, re_max)


@settings(max_examples=200, deadline=None)
@given(tau_omega=_TAU_OMEGA, k=_SPRING, omega=st.floats(0.5, 4.0))
def test_walk_counts_a_runaway_exactly_when_mu_exceeds_m(tau_omega, k, omega):
    # mu/m = omega_C tau = 3 tau Omega for the Lorentzian
    assume(abs(3.0 * tau_omega - 1.0) >= 1e-6)
    mech = vm.MirrorMechanics(k=k, tau=tau_omega / omega)
    count = vm.count_rhp_zeros(vm.lorentzian_mirror(omega), mech)
    assert count == int(3.0 * tau_omega > 1.0)


def test_table_walk_above_its_curve_matches_the_lorentzian(lorentzian, table_1100):
    # above the Gamma curve's top (1000) the walk reads the tail's axis value,
    # whose Gamma_I carries -pi b/(2 y^2), the Kramers-Kronig partner of the
    # tail's b ln y/y^2, and the y^-3 term: 8.4e-7 of |Z| worst, at 1e7 (1.4e-4
    # next to the top without the y^-3 term, 2.7e-2 without either); Re Z keeps
    # its values
    mech = vm.MirrorMechanics(k=2.25, tau=0.3)
    y = np.geomspace(1000.0001, 1e7, 400)
    z, exact = (_axis_impedance(m, mech, y) for m in (table_1100, lorentzian))
    assert np.max(np.abs(z - exact) / np.abs(exact)) < 2e-6


@pytest.mark.parametrize("kind,bound", [("1100", 2e-7), ("200", 1e-5), ("blaschke", 2e-7)])
def test_gamma_above_the_curve_is_the_continuations_boundary_value(table_1100, kind, bound):
    # the tail's axis value against the Cauchy continuation of the same curve
    # and tail just above the axis, from just above the top to 1e4 times it:
    # 8.6e-8, 3.7e-6 and 8.9e-8 of |Gamma| worst, next to the top (1.6e-5,
    # 3.2e-4 and 5.4e-5 without the y^-3 term)
    model = {"1100": table_1100, "200": make_tabulated_copy(omega_max=200.0, step=1e-2,
                                                            log_points=2200),
             "blaschke": make_blaschke_table((-0.7j, 2 - 1.1j, -2 - 1.1j))}[kind]
    curve = model.gamma_curve
    y = np.geomspace(curve.grid[-1] * (1.0 + 1e-12), 1e4 * curve.grid[-1], 400)
    exact = vm.continue_upper_half(curve, y * (1.0 + 1e-13j))
    assert np.max(np.abs(model._axis_gamma(y) - exact) / np.abs(exact)) < bound


@settings(max_examples=30, deadline=None)
@given(tau_omega=_TAU_OMEGA, k=_SPRING, kind=st.sampled_from(["lorentzian", "perfect", "tabulated"]))
def test_axis_verdict_matches_the_probe_scan(lorentzian, perfect, table_1100, tau_omega, k, kind):
    # away from mu = m, where the count is refused: no zero in Re p > 0 and
    # Re Z(i y) >= 0 on the walk is the verdict of the log-polar probe scan
    # with no zero counted
    assume(abs(3.0 * tau_omega - 1.0) >= 1e-2)
    model = {"lorentzian": lorentzian, "perfect": perfect, "tabulated": table_1100}[kind]
    mech = vm.MirrorMechanics(k=k, tau=tau_omega)
    report = vm.stability_report(model, mech)
    oracle = vm.passivity_check(model, mech).passive and report.rhp_zero_count == 0
    assert report.passive == oracle


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


def test_spectral_reads_the_curves_own_spline_bitwise(lorentzian):
    # one spline per curve, shared by every p, gives the numbers of a spline
    # built afresh for each call
    mech = vm.MirrorMechanics(k=0.5, tau=0.03)
    curve = sample_gamma_real(lorentzian)
    mu = vm.induced_mass(mech, vm.reflection_cutoff(lorentzian))
    ps = np.geomspace(1e-2, 1e2, 9)
    shared = [vm.spectral_impedance(lorentzian, mech, p, gamma_curve=curve, mu=mu) for p in ps]
    fresh = [vm.spectral_impedance(lorentzian, mech, p, mu=mu,
                                   gamma_curve=vm.ResponseCurve(curve.grid, curve.values))
             for p in ps]
    assert np.array(shared).tobytes() == np.array(fresh).tobytes()
    rho = np.geomspace(1e-3, 1e3, 2001)
    spline = CubicSpline(curve.grid, np.real(curve.values))
    assert curve._real_spline(rho).tobytes() == spline(rho).tobytes()


def test_spectral_mu_defaults_to_the_curves_own(table_1100, monkeypatch):
    # mu left None is m tau (2/pi) of the passed curve's integral: a curve to 500
    # on a table whose own curve ends at 1e3 samples no other curve
    import vacmirror.analysis as analysis

    mech = vm.MirrorMechanics(k=0.5, tau=0.03)
    curve = sample_gamma_real(table_1100, 500.0)
    mu = mech.m * mech.tau * (2.0 / np.pi) * curve.real_integral
    sampled = []
    original = analysis.sample_gamma_real
    monkeypatch.setattr(analysis, "sample_gamma_real",
                        lambda *args, **kwargs: sampled.append(args) or original(*args, **kwargs))
    for p in (0.05, 1.0 + 0.5j, 40.0):
        z = vm.spectral_impedance(table_1100, mech, p, gamma_curve=curve)
        assert z == vm.spectral_impedance(table_1100, mech, p, gamma_curve=curve, mu=mu)
    assert sampled == []


@pytest.mark.parametrize("kind", ["lorentzian", "tabulated"])
def test_spectral_array_matches_the_scalar_calls_bitwise(lorentzian, table_1100, kind):
    # one call on an array of p, shaped like p, gives the per-point calls'
    # numbers; a scalar p still gives a complex
    model = lorentzian if kind == "lorentzian" else table_1100
    mech = vm.MirrorMechanics(k=0.5, tau=0.03)
    ps = np.concatenate([np.geomspace(1e-2, 1e2, 100), [1.0 + 0.5j, 3.0 - 2.0j]]).reshape(2, 51)
    array = vm.spectral_impedance(model, mech, ps)
    scalar = [vm.spectral_impedance(model, mech, p) for p in ps.ravel()]
    assert all(type(z) is complex for z in scalar)
    assert type(vm.spectral_impedance(model, mech, 2.0)) is complex
    assert array.shape == ps.shape
    assert array.tobytes() == np.array(scalar).reshape(ps.shape).tobytes()


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
        "rhp_zero_count", "roots", "passive",
    }
    assert doc["rhp_zero_count"] == 1
    assert doc["omega_C"] is None  # divergent cutoff
    assert not doc["passive"]
    assert doc["roots"][0]["re"] == pytest.approx(1000.0, rel=1e-8)
    # a non-finite number fails loudly instead of becoming invalid JSON
    (root, _), = report.roots
    broken = dataclasses.replace(report, roots=((root, float("nan")),))
    with pytest.raises(ValueError, match="JSON"):
        broken.to_json()


@pytest.mark.parametrize("tau", [1e-16, 1e-3, 0.1, 1.0, 5.0, 1e8])
@pytest.mark.parametrize("k", [0.0, 0.5, 4.0])
def test_perfect_mirror_root_from_the_real_axis_scan(perfect, tau, k):
    # the scan lands exactly on the root at tau = 1, k = 0 (p = 1) and at
    # tau = 5, k = 4 (5 p^3 - p^2 - 4 = 0 at p = 1): one seed, not two; at
    # tau = 1e8, k = 0 the root p = 1e-8 lies below the first scan
    mech = vm.MirrorMechanics(k=k, tau=tau)
    report = vm.stability_report(perfect, mech)
    assert report.rhp_zero_count == 1
    (root, _), = report.roots
    expect, _ = vm.refine_root(perfect, mech, 0.8 / tau)
    assert abs(root - expect) <= 1e-12 * abs(expect)


def test_refine_root_accepts_a_root_at_the_rounding_floor(perfect):
    # at tau = 1e8, k = 4 the terms k/p and m tau p^2 that cancel at the root
    # p = 3.42e-3 are about 1e3; the floats next to the root read |Z| around
    # 3e-13, above 1e-10 m|p| = 3.4e-13 at some of them
    mech = vm.MirrorMechanics(k=4.0, tau=1e8)
    report = vm.stability_report(perfect, mech)
    assert len(report.roots) == report.rhp_zero_count == 1
    (root, _), = report.roots
    offsets = np.geomspace(1e-9, 1e-3, 25)
    for seed in root.real * np.concatenate([1.0 + offsets, 1.0 - offsets]):
        found, _ = vm.refine_root(perfect, mech, seed)
        assert abs(found - root) <= np.spacing(root.real)


@pytest.mark.parametrize("kind", ["perfect", "lorentzian"])
@pytest.mark.parametrize("tau", [1e8, 1e12, 1e20, 1e100])
@pytest.mark.parametrize("k", [0.0, 4.0])
def test_slow_runaway_has_its_one_root(perfect, lorentzian, kind, tau, k):
    # the root p ~ 1/tau (k = 0) or (k/(m tau))^(1/3) lies far below the
    # scales 1 and Omega: a secant that stepped 1e-12 from its seed landed
    # 1e8 roots past the root 1e-20, and the report counted it with no root
    model = perfect if kind == "perfect" else lorentzian
    mech = vm.MirrorMechanics(k=k, tau=tau)
    report = vm.stability_report(model, mech)
    assert len(report.roots) == report.rhp_zero_count == 1
    if kind == "perfect" and k == 0.0:
        (root, _), = report.roots
        assert abs(root * tau - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", ["perfect", "lorentzian"])
@pytest.mark.parametrize("tau", [1e10, 1e12])
def test_refine_root_from_either_side_of_a_slow_root(perfect, lorentzian, kind, tau):
    # a step test of 1e-14 max(1, |p|), absolute below p = 1, stopped the
    # secant 1e-8 relative from the root p = 1/tau, its residual above the
    # tolerance
    model = perfect if kind == "perfect" else lorentzian
    mech = vm.MirrorMechanics(k=0.0, tau=tau)
    below, _ = vm.refine_root(model, mech, (1.0 - 1e-3) / tau)
    above, _ = vm.refine_root(model, mech, (1.0 + 1e-3) / tau)
    assert abs(below - above) <= 1e-12 * abs(above)
    if kind == "perfect":
        assert abs(above * tau - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", ["lorentzian", "tabulated"])
@pytest.mark.parametrize("tau,k", [(0.34, 0.0), (0.35, 0.0), (0.4, 0.0), (0.35, 1.0)])
def test_runaway_just_above_the_mass_boundary(lorentzian, table_1100, kind, tau, k):
    # 1 < mu/m <= 1.2: the real zero lies far out (p ~ 541 at tau Omega = 0.34);
    # mu/m = 3 tau Omega is 1.2 at tau Omega = 0.4, up to the rounding of 3 * 0.4
    model = lorentzian if kind == "lorentzian" else table_1100
    mech = vm.MirrorMechanics(k=k, tau=tau)
    report = vm.stability_report(model, mech)
    assert 1.0 < report.mu_over_m < 1.2 + 1e-12
    assert report.rhp_zero_count == 1
    (root, resid), = report.roots
    assert abs(root.imag) <= 1e-12 * abs(root) and root.real > 10.0
    assert resid <= 1e-10 * mech.m * abs(root)
    assert not report.passive


@pytest.mark.parametrize("tau,root", [(0.34, 541.374), (300.0, 3.33890e-3),
                                      (3000.0, 3.33389e-4), (1e4, 1.00005e-4)])
def test_table_finds_the_lorentzian_runaway_root(lorentzian, table_1100, tau, root):
    # the root near the table's top (tau Omega = 0.34) and the slow ones at
    # p ~ 1/(3 tau), where Gamma{p} is read at p far below the curve's first
    # piece; the trapezoid continuation put the first at 546.37 and found no
    # root at 3000 and 1e4
    mech = vm.MirrorMechanics(k=0.0, tau=tau)
    (exact, _), = vm.stability_report(lorentzian, mech).roots
    assert exact.real == pytest.approx(root, rel=1e-5)
    report = vm.stability_report(table_1100, mech)
    assert report.rhp_zero_count == 1
    (found, _), = report.roots
    assert abs(found - exact) <= 1e-4 * abs(exact)


def test_real_axis_seeds_take_an_exact_zero_once(perfect):
    mech = vm.MirrorMechanics(k=0.0, tau=1.0)
    ps = np.geomspace(1e-6, 10.0, 400)
    assert 1.0 in ps  # the scan hits the root p = 1/tau exactly
    assert _real_axis_seeds(perfect, mech, 10.0) == [1.0]


def bisected_seeds(model, mech, p_max, p_min=1e-6, n=400):
    """The scan's real zeros with each sign change bisected 60 times by scalar
    calls: the oracle of ``_real_axis_seeds``, whose seeds are the chord zeros
    of the same brackets, left for the secant to refine."""
    ps = np.geomspace(p_min, p_max, n)
    z = np.real(np.atleast_1d(vm.laplace_impedance(model, mech, ps)))
    sign = np.sign(z)
    seeds = [float(p) for p in ps[sign == 0]]
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        a, b, fa = ps[i], ps[i + 1], z[i]
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(np.real(vm.laplace_impedance(model, mech, m)))
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        seeds.append(0.5 * (a + b))
    return sorted(seeds)


def seeded_report(model, mech, seeder):
    """The stability report with ``seeder`` in place of ``_real_axis_seeds``,
    and every seed it gave."""
    import vacmirror.analysis as analysis

    seeds = []

    def recorded(*args, **kwargs):
        found = seeder(*args, **kwargs)
        seeds.extend(found)
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_real_axis_seeds", recorded)
        return seeds, vm.stability_report(model, mech)


def assert_matches_the_bisection_oracle(model, mech):
    """The secant from the chord seeds against the secant from the bisected
    seeds: the same count, verdict and number of seeds, a root for every zero
    counted, each within 1e-12 relative of the oracle's."""
    seeds, report = seeded_report(model, mech, _real_axis_seeds)
    expected, oracle = seeded_report(model, mech, bisected_seeds)
    assert (report.rhp_zero_count, report.passive) == (oracle.rhp_zero_count, oracle.passive)
    assert len(seeds) == len(expected)
    assert len(report.roots) == report.rhp_zero_count == len(oracle.roots)
    for (root, _), (expect, _) in zip(report.roots, oracle.roots):
        assert abs(root - expect) <= 1e-12 * abs(expect)


@settings(max_examples=80, deadline=None)
@given(omega=st.floats(0.3, 5.0),
       mu_over_m=st.one_of(st.floats(1.001, 1.05), st.floats(1.05, 900.0)),
       k=st.one_of(st.just(0.0), st.floats(0.05, 20.0)))
# the secant from the seed cycles at the rounding floor, |f| growing after each
# small step: it found no root for the zero counted until it stopped there
@example(omega=4.757399666691871, mu_over_m=4.757399666691871, k=0.0)
# next to mu = m the secant from a seed an ulp from the root met a degenerate
# update at the rounding floor: the zero was counted and no root reported
@example(omega=1.0, mu_over_m=1.00390625, k=0.0)
def test_lorentzian_roots_match_the_bisection_oracle(omega, mu_over_m, k):
    # mu/m = 3 tau Omega for the Lorentzian
    mech = vm.MirrorMechanics(k=k, tau=mu_over_m / (3.0 * omega))
    assert_matches_the_bisection_oracle(vm.lorentzian_mirror(omega), mech)


@pytest.mark.parametrize("tau", [0.4, 0.35, 3000.0])
def test_table_roots_match_the_bisection_oracle(table_1100, tau):
    assert_matches_the_bisection_oracle(table_1100, vm.MirrorMechanics(k=0.0, tau=tau))
