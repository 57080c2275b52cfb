from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import vacmirror as vm
from vacmirror.errors import AccuracyError, CutoffDivergenceError
from vacmirror.numerics import (
    _PV_BLOCK,
    LogTail,
    PiecewiseCubic,
    QuadratureSettings,
    adaptive_gauss_legendre,
)
from vacmirror.susceptibility import curve_cutoff

from conftest import make_tabulated_copy

# closed-form value at w = Omega: Gamma = -6 f(i)/i^3 with
# f(x) = -x + x^2/2 - (1-x) ln(1-x)
GAMMA_AT_OMEGA = 0.7918305220645259 + 0.3670525612951462j


def test_alpha_reference_values(lorentzian, perfect):
    assert vm.alpha(perfect, 0.7, 12.0) == pytest.approx(2.0)
    assert vm.alpha(lorentzian, 0.0, 0.0) == pytest.approx(2.0)
    assert vm.alpha(lorentzian, 1.0, 1.0) == pytest.approx(1.0 + 1.0j)


def test_beta_reference_values(lorentzian, perfect):
    assert vm.beta(lorentzian, 0.8, 0.8) == pytest.approx(0.0)
    assert vm.beta(perfect, 0.3, 2.0) == pytest.approx(0.0)
    assert vm.beta(lorentzian, 1.0, 0.0) == pytest.approx(-(1 - 1j) / 2)


def test_beta_antisymmetry(lorentzian):
    rng = np.random.default_rng(7)
    w1 = rng.uniform(0.05, 8.0, 100)
    w2 = rng.uniform(0.05, 8.0, 100)
    np.testing.assert_allclose(
        vm.beta(lorentzian, w1, w2), -vm.beta(lorentzian, w2, w1), atol=1e-14
    )


def test_unitarity_identity(lorentzian):
    # 2 Re alpha = |alpha|^2 + |beta|^2 for unitary scattering
    w = np.geomspace(0.02, 20.0, 60)
    W1, W2 = np.meshgrid(w, w)
    a = vm.alpha(lorentzian, W1, W2)
    b = vm.beta(lorentzian, W1, W2)
    defect = np.abs(2 * a.real - np.abs(a) ** 2 - np.abs(b) ** 2)
    assert defect.max() < 1e-12


def test_gamma_perfect_is_unity(perfect):
    for w in [1e-3, 0.4, 3.0, 250.0]:
        assert abs(vm.gamma(perfect, w) - 1.0) < 1e-10


def test_gamma_zero_frequency_limit(lorentzian, tabulated_copy):
    assert vm.gamma(lorentzian, 0.0) == pytest.approx(1.0)
    assert vm.gamma(tabulated_copy, 0.0) == pytest.approx(1.0, abs=1e-8)


def test_gamma_quadrature_matches_closed_form_at_omega(lorentzian):
    val, err = vm.gamma(lorentzian, 1.0, full_output=True)
    assert abs(val - GAMMA_AT_OMEGA) < 1e-9
    assert err < 1e-9


def test_gamma_negative_frequency_conjugate(lorentzian):
    g = vm.gamma(lorentzian, 2.5)
    assert vm.gamma(lorentzian, -2.5) == pytest.approx(np.conj(g))


def test_gamma_parity_on_symmetric_grid(lorentzian):
    ws = np.array([0.3, 1.7, 6.0])
    for w in ws:
        gp = vm.gamma(lorentzian, w)
        gn = vm.gamma(lorentzian, -w)
        assert gn.real == pytest.approx(gp.real, abs=1e-12)  # even
        assert gn.imag == pytest.approx(-gp.imag, abs=1e-12)  # odd


def test_gamma_quadrature_budget_error(lorentzian):
    with pytest.raises(AccuracyError) as info:
        vm.gamma(lorentzian, 300.0, QuadratureSettings(abs_tol=1e-16, max_panels=4))
    assert info.value.estimate is not None
    assert info.value.error_bound > 1e-16


def test_lorentzian_gamma_series_and_limits():
    assert vm.lorentzian_gamma(0.0) == pytest.approx(1.0)
    w = 1e-3
    x = 1j * w
    series = 1.0 + 0.5 * x + 0.3 * x * x
    assert abs(vm.lorentzian_gamma(w) - series) < 1e-9
    assert vm.lorentzian_gamma(1.0) == pytest.approx(GAMMA_AT_OMEGA)
    # real and in (0, 1] on the positive imaginary axis
    g = vm.lorentzian_gamma(1j)
    assert g.imag == pytest.approx(0.0, abs=1e-15)
    assert g.real == pytest.approx(6 * (1.5 - 2 * np.log(2.0)))


def test_lorentzian_gamma_branch_cut():
    with pytest.raises(vm.BranchCutError):
        vm.lorentzian_gamma(-2.0j)


def test_susceptibility_values(lorentzian, perfect):
    mech = vm.MirrorMechanics(tau=1e-3)
    assert vm.susceptibility(perfect, mech, 1.0) == pytest.approx(1e-3j)
    assert vm.susceptibility(lorentzian, mech, 0.0) == 0.0
    expect = 1j * 1e-3 * GAMMA_AT_OMEGA
    assert vm.susceptibility(lorentzian, mech, 1.0) == pytest.approx(expect, abs=1e-11)


def test_susceptibility_vanishes_quadratically(lorentzian):
    # chi, chi', chi'' all vanish at w = 0: |chi| <= C w^3 at small w
    mech = vm.MirrorMechanics(tau=1e-3)
    for w in [1e-2, 1e-3]:
        assert abs(vm.susceptibility(lorentzian, mech, w)) < 2e-3 * w**3


def test_positivity_gamma_real(lorentzian, tabulated_copy):
    ws = np.geomspace(1e-2, 10.0, 60)
    mech = vm.MirrorMechanics(tau=1e-3)
    for model in (lorentzian, tabulated_copy):
        for w in ws:
            g = vm.gamma(model, float(w))
            assert g.real >= -1e-9
            chi_i = vm.susceptibility(model, mech, float(w)).imag
            assert chi_i >= -1e-9 * mech.m * mech.tau * w**3


def test_oracle_equivalence_band(lorentzian):
    ws = np.geomspace(0.01, 10.0, 60)
    quad = np.array([vm.gamma(lorentzian, float(w)) for w in ws])
    exact = vm.lorentzian_gamma(ws)
    assert np.max(np.abs(quad - exact) / np.abs(exact)) < 1e-6


# |w| in [1e-3, 1e3], either sign
_SIGNED_FREQS = hnp.arrays(
    np.float64, st.integers(1, 5),
    elements=st.tuples(st.floats(-3.0, 3.0), st.sampled_from([-1.0, 1.0])).map(
        lambda t: t[1] * 10.0 ** t[0]),
)


@settings(max_examples=30, deadline=None)
@given(w=_SIGNED_FREQS, scale=st.floats(0.5, 2.0))
def test_sampler_lorentzian_matches_quadrature(w, scale):
    model = vm.lorentzian_mirror(scale)
    fast = vm.gamma_samples(model, w)
    quad = np.array([vm.gamma(model, float(x)) for x in w])
    assert np.all(np.abs(fast - quad) <= 1e-6 * np.abs(quad))  # criterion 1's bound
    np.testing.assert_array_equal(vm.gamma_samples(model, -w), np.conj(fast))


@settings(max_examples=20, deadline=None)
@given(w=_SIGNED_FREQS)
def test_sampler_perfect_is_exactly_one(perfect, w):
    fast = vm.gamma_samples(perfect, w)
    assert np.all(fast == 1.0)
    quad = np.array([vm.gamma(perfect, float(x)) for x in w])
    assert np.max(np.abs(quad - 1.0)) < 1e-12


# the adaptive quadrature as a tight oracle: table kinks, not the
# tolerance, limit it, so it is held to 1e-13 with a large panel budget
_TIGHT = QuadratureSettings(abs_tol=1e-13, max_panels=40000)


@settings(max_examples=3, deadline=None)
@given(w=hnp.arrays(np.float64, st.integers(1, 2), elements=st.floats(-12.0, 12.0)))
def test_sampler_tabulated_is_the_quadrature_loop(tabulated_copy, w):
    vals = vm.gamma_samples(tabulated_copy, w)
    quad = np.array([vm.gamma(tabulated_copy, float(x), _TIGHT) for x in w])
    assert np.max(np.abs(vals - quad)) < 1e-11


def test_tabulated_gamma_refuses_frequencies_beyond_the_table(tabulated_copy):
    top = tabulated_copy.omega_range[1]
    vm.gamma_samples(tabulated_copy, np.array([-top, top]))
    for w in (np.nextafter(top, np.inf), -2.0 * top):
        with pytest.raises(vm.FrequencyRangeError):
            vm.gamma_samples(tabulated_copy, np.array([0.5, w]))


def test_tabulated_gamma_at_zero_is_r0_squared(tabulated_copy):
    r0 = vm.reflectivity(tabulated_copy, 0.0)
    assert vm.gamma_samples(tabulated_copy, np.array([0.0]))[0] == r0**2
    assert vm.gamma_samples(tabulated_copy, 0.0) == vm.gamma(tabulated_copy, 0.0)


def test_sampler_tabulated_continues_its_curve_in_one_call(tabulated_copy):
    # Im w > 0: the Cauchy continuation of the cached curve, over more than
    # one block of rows, bitwise what the per-point loop gives
    curve = tabulated_copy.gamma_curve
    n = 2 * (_PV_BLOCK // curve.grid.size) + 3
    w = np.geomspace(1e-3, 1e4, n) * np.exp(1j * np.linspace(0.05, np.pi - 0.05, n))
    each = np.array([vm.continue_upper_half(curve, x) for x in w])
    assert vm.gamma_samples(tabulated_copy, w).tobytes() == each.tobytes()
    assert vm.gamma_samples(tabulated_copy, w[3]) == each[3]


@settings(max_examples=12, deadline=None)
@given(omega=st.floats(0.5, 2.0), step=st.sampled_from([0.02, 0.05]),
       log_points=st.integers(200, 400), top=st.floats(300.0, 1000.0))
def test_tabulated_continuation_is_the_closed_form_on_the_imaginary_axis(omega, step,
                                                                         log_points, top):
    # a coarse table of the Lorentzian, continued from its Gamma curve, against
    # the closed form from y = 1e-9 to the curve's top: the table's own
    # interpolation error, 2.0e-6 near y = 0.02 Omega at step 0.05 over 80
    # draws spanning these ranges, sets the 1e-5 (its PCHIP cubics read 4.7e-5
    # there; the trapezoid rule before them read 318 for 1 at y = 1e-6)
    model = vm.lorentzian_mirror(omega)
    w = omega * np.unique(np.concatenate([np.arange(0.0, 2.0, step),
                                          np.geomspace(2.0, top, log_points)]))
    table = vm.tabulated_mirror(w, vm.reflectivity(model, w), vm.transmissivity(model, w))
    y = np.geomspace(1e-9, table.gamma_curve.grid[-1], 60)
    exact = vm.lorentzian_gamma(1j * y, omega)
    assert np.max(np.abs(vm.gamma_samples(table, 1j * y) - exact) / np.abs(exact)) < 1e-5


def test_sampler_tabulated_refuses_im_w_at_or_below_zero(tabulated_copy):
    for bad in (1.0 + 0.0j, 1.0 - 1e-3j, -2.0j):
        with pytest.raises(vm.ContinuationError):
            vm.gamma_samples(tabulated_copy, np.array([2.0j, bad]))


@st.composite
def _random_tables(draw, max_nodes=9, unitary=True):
    """A coarse random table on a non-uniform grid; with |r|^2 + |s|^2 = 1 and
    Re(r conj s) = 0 at every node when ``unitary``, else with s drawn apart."""
    n = draw(st.integers(4, max_nodes))
    steps = draw(st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1))
    w = np.concatenate([[0.0], np.cumsum(steps)])

    # on a lattice (|r| in steps of 1/64, phases in steps of pi/180), so that
    # draws reach r = 0, s = 0 and repeated neighbours, which float draws
    # rarely give
    def lattice(lo, hi, scale):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))) / scale

    a = lattice(0, 64, 64.0)
    phase = np.exp(1j * np.pi * lattice(-90, 90, 180.0))
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    if unitary:
        s = 1j * sign * np.sqrt(1.0 - a**2) * phase
    else:
        s = lattice(0, 64, 64.0) * np.exp(1j * np.pi * lattice(-180, 180, 180.0))
    return vm.tabulated_mirror(w, a * phase, s)


@st.composite
def _table_and_frequencies(draw):
    """A table of 4-40 nodes, and w on a node, at a sum of two nodes (so that
    a w - w_j lands on a w_i), mid-interval and at the table top."""
    table = draw(_random_tables(max_nodes=40, unitary=draw(st.booleans())))
    t = table.table[0]
    node, i = draw(st.integers(0, t.size - 1)), draw(st.integers(0, t.size - 1))
    j = draw(st.sampled_from(np.flatnonzero(t <= t[-1] - t[i]).tolist()))
    m = draw(st.integers(0, t.size - 2))
    w = [t[node], min(t[i] + t[j], t[-1]), 0.5 * (t[m] + t[m + 1]), t[-1]]
    return table, np.array(w)


def _quadrature_between_breakpoints(table, w):
    """Gamma[w] by the adaptive rule on each piece between {w_i / w} and
    {1 - w_j / w}.  ``gamma`` integrates [0, 1] whole, and on a coarse table
    its 15- and 30-node values can agree across a kink they both miss: one
    falsifying table reads 3.8e-11 off with an error estimate of 2.3e-16."""
    if w == 0.0:
        return vm.gamma(table, 0.0)
    t = table.table[0]
    t = t[t < w] / w
    cuts = np.unique(np.concatenate([[0.0, 1.0], t, 1.0 - t]))

    def integrand(u):
        return 3.0 * u * (1.0 - u) * vm.alpha(table, w * (1.0 - u), w * u)

    return sum(adaptive_gauss_legendre(integrand, a, b, _TIGHT)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


@settings(max_examples=5, deadline=None)
@given(case=_table_and_frequencies())
def test_tabulated_gamma_is_exact_on_random_tables(case):
    table, w = case
    quad = np.array([_quadrature_between_breakpoints(table, float(x)) for x in w])
    assert np.max(np.abs(vm.gamma_samples(table, w) - quad)) < 1e-11


@settings(max_examples=8, deadline=None)
@given(table=_random_tables(), frac=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=2))
def test_tabulated_gamma_parity(table, frac):
    w = np.array(frac) * table.omega_range[1]
    np.testing.assert_array_equal(vm.gamma_samples(table, -w),
                                  np.conj(vm.gamma_samples(table, w)))


def _odd_node_table():
    """21 nodes at w = 0..20, transparent (r = 0, s = -i) but for r = 0.6,
    s = -0.8i at w = 10: the not-a-knot splines ring next to that node and
    overshoot unitarity there by 0.062."""
    w = np.arange(21.0)
    r, s = np.zeros(21, dtype=complex), np.full(21, -1j)
    r[10], s[10] = 0.6, -0.8j
    return vm.tabulated_mirror(w, r, s)


@settings(max_examples=40, deadline=None)
@given(table=_random_tables(max_nodes=30), frac=st.lists(st.floats(0.01, 1.0), min_size=1,
                                                          max_size=4))
@example(table=_odd_node_table(), frac=[0.5, 0.8, 0.92, 1.0])
def test_tabulated_gamma_r_is_bounded_by_the_unitarity_defect(table, frac):
    # the passivity bound: with eps the largest |r|^2 + |s|^2 - 1 on [0, w],
    # |s s' - r r'| <= 1 + eps by Cauchy-Schwarz, so Re alpha >= -eps, and as
    # 3 int_0^w x (w - x) dx = w^3 / 2, Gamma_R[w] >= -eps / 2; eps is read at
    # 10001 points of [0, w], and the margin 1e-12 is for rounding alone (over
    # 300 random unitary tables Gamma_R + eps / 2 was 0.057 at the least)
    for w in np.array(frac) * table.omega_range[1]:
        x = np.linspace(0.0, w, 10001)
        eps = np.max(np.abs(vm.reflectivity(table, x)) ** 2
                     + np.abs(vm.transmissivity(table, x)) ** 2 - 1.0)
        assert vm.gamma_samples(table, w).real >= -eps / 2.0 - 1e-12


@settings(max_examples=25, deadline=None)
@given(table=_random_tables())
def test_unitarity_identity_on_random_tables(table):
    # 2 Re alpha = |alpha|^2 + |beta|^2 wherever both frequencies scatter unitarily
    nodes = table.table[0]
    w = np.concatenate([-nodes[::-1], nodes])
    W1, W2 = np.meshgrid(w, w)
    a = vm.alpha(table, W1, W2)
    b = vm.beta(table, W1, W2)
    assert np.max(np.abs(2 * a.real - np.abs(a) ** 2 - np.abs(b) ** 2)) < 1e-13


def test_high_frequency_tail_law(lorentzian):
    # Gamma ~ omega_C / (-i w): the residual decays faster than 1/w, so
    # a decay-rate fit on the top decade must come out well below -1
    ws = np.geomspace(100.0, 1000.0, 12)
    res = np.array([abs(vm.gamma(lorentzian, float(w)) - 3.0j / w) for w in ws])
    slope = np.polyfit(np.log(ws), np.log(res), 1)[0]
    assert slope < -1.5
    assert np.all(res * ws < 0.5)


def test_reflection_cutoff_lorentzian(lorentzian):
    omega_c, diag = vm.reflection_cutoff(lorentzian, full_output=True)
    assert omega_c == pytest.approx(3.0, rel=1e-2)
    assert diag.tail_fraction > 0.0
    assert diag.decay_slope < -1.2


@pytest.mark.parametrize("omega", [0.5, 1.0, 4.0, 1e4])
def test_lorentzian_cutoff_is_three_omega_with_its_exact_tail_share(omega):
    omega_c, diag = vm.reflection_cutoff(vm.lorentzian_mirror(omega), full_output=True)
    assert omega_c == 3.0 * omega
    # the share of omega_C above the curve's top 1e3 Omega from the primitive,
    # against the adaptive oracle on the closed form over [0, 1e3 Omega]
    cuts = np.unique(np.concatenate([[0.0, omega], omega * np.geomspace(1e-2, 1e3, 6)]))
    settings = QuadratureSettings(abs_tol=1e-10, max_panels=40000)
    below = sum(adaptive_gauss_legendre(lambda w: vm.lorentzian_gamma(w, omega).real, a, b,
                                        settings)[0].real for a, b in zip(cuts[:-1], cuts[1:]))
    assert diag.tail_fraction == pytest.approx(1.0 - 2.0 * below / (np.pi * omega_c), rel=1e-9)
    assert 0.0 < diag.tail_fraction < 1.0
    if omega <= 4.0:
        # far above Omega it integrates Gamma_R ~ 6 Omega^2 (ln(w/Omega) - 1)/w^2,
        # which the closed form approaches like 1 + pi/(2 (w/Omega) (ln(w/Omega) - 1))
        w = omega * np.geomspace(1e3, 1e6, 20)
        asymptote = 6.0 * omega**2 * (np.log(w / omega) - 1.0) / w**2
        assert np.max(np.abs(vm.lorentzian_gamma(w, omega).real / asymptote - 1.0)) < 3e-4
        share = 4.0 * np.log(1e3) / (np.pi * 1e3)
        assert diag.tail_fraction == pytest.approx(share, rel=1e-3)


def test_lorentzian_curve_integrates_to_three_omega(lorentzian):
    # the curve's cubic pieces exactly, closed by its (a + b ln w)/w^2 + c/w^3
    # tail: -9.3e-8 relative, where the decade quadrature and the c/w^2 tail
    # read -2.7e-3
    curve = vm.sample_gamma_real(lorentzian)
    assert (2.0 / np.pi) * curve.real_integral == pytest.approx(3.0, rel=2e-5)


def test_reflection_cutoff_perfect_diverges(perfect):
    with pytest.raises(CutoffDivergenceError):
        vm.reflection_cutoff(perfect)


def test_induced_mass():
    mech = vm.MirrorMechanics(tau=1e-3)
    assert vm.induced_mass(mech, 3.0) == pytest.approx(3e-3)
    boundary = vm.MirrorMechanics(tau=1.0 / 3.0)
    assert vm.induced_mass(boundary, 3.0) == pytest.approx(1.0)
    assert vm.induced_mass(mech, 0.0) == 0.0
    with pytest.raises(ValueError):
        vm.induced_mass(mech, np.inf)


def test_response_curve_parity_and_range():
    grid = np.linspace(0.0, 5.0, 200)
    vals = vm.lorentzian_gamma(grid)
    curve = vm.ResponseCurve(grid, vals, label="gamma")
    assert curve(-2.0) == pytest.approx(np.conj(curve(2.0)))
    with pytest.raises(vm.FrequencyRangeError):
        curve(7.0)
    with pytest.raises(ValueError):
        vm.ResponseCurve(grid[::-1], vals)


@pytest.mark.parametrize("points,fitted", [(40, True), (10, False)])
def test_response_curve_tail_is_the_fit_or_zero(points, fitted):
    # log grids to 100 with 12 and 3 samples in the top decade [10, 100]
    grid = np.geomspace(1e-2, 1e2, points)
    values = 1.0 / (1.0 + grid**2) + 1j * grid / (1.0 + grid**2)
    curve = vm.ResponseCurve(grid, values)
    expected = LogTail.fit(grid, values.real)
    assert np.float64(astuple(curve.tail)).tobytes() == np.float64(astuple(expected)).tobytes()
    assert curve.tail.top == grid[-1]
    if not fitted:
        assert astuple(curve.tail)[:3] == (0.0, 0.0, 0.0)
        # the transform closes with no tail instead of refusing the curve; its
        # real part is the curve's spline
        rec = vm.kk_reconstruct(curve, 1.0)
        assert np.isfinite(rec) and rec.real == pytest.approx(curve._real_spline(1.0), rel=1e-15)


def test_lorentzian_cutoff_and_induced_mass(lorentzian):
    # the omega_C and mu/m that analyze writes to summary.json
    omega_c, diag = vm.reflection_cutoff(lorentzian, full_output=True)
    assert omega_c == pytest.approx(3.0, rel=1e-2)
    assert vm.induced_mass(vm.MirrorMechanics(tau=1e-3), omega_c) == pytest.approx(3e-3, rel=1e-2)
    assert np.isfinite(diag.tail_fraction) and np.isfinite(diag.decay_slope)


def test_tabulated_gamma_on_the_benchmark_table():
    # the benchmark's Lorentzian table to omega = 1100, on the analyze grid
    table = make_tabulated_copy(omega_max=1100.0, step=2e-3, log_points=2200)
    grid = np.geomspace(1e-2, 1e2, 100)
    exact = vm.lorentzian_gamma(grid)
    rel = np.abs(vm.gamma_samples(table, grid) - exact) / np.abs(exact)
    assert np.max(rel) < 1e-6  # criterion 1
    assert vm.reflection_cutoff(table) == pytest.approx(3.0, rel=1e-2)


def test_reflection_cutoff_to_another_top_resamples_and_keeps_the_curve():
    # the 1100-top table's kept curve ends at 1e3; a cutoff to 1100 is the
    # curve_cutoff of a curve sampled to 1100, and leaves the kept one as it was
    table = make_tabulated_copy(omega_max=1100.0, step=1e-2, log_points=2200)
    kept = table.gamma_curve
    omega_c, diag = vm.reflection_cutoff(table, omega_max=1100.0, full_output=True)
    curve = vm.sample_gamma_real(table, 1100.0)
    assert (omega_c, diag.decay_slope) == curve_cutoff(curve)
    assert diag.tail_fraction == curve.tail.integral() / curve.real_integral
    assert table.gamma_curve is kept and kept.grid[-1] == 1e3
    assert omega_c == pytest.approx(3.0, rel=1e-6) and omega_c != vm.reflection_cutoff(table)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=3, max_value=120))
def test_response_curve_is_its_parts_through_one_spline(data, n):
    # one spline of both parts, each summed straight into the complex value:
    # bitwise the real part's spline + 1j * the imaginary part's, each fitted
    # alone, at |w|, and its conjugate at w < 0 (y + 0.0 drops -0.0, which the
    # sum with 1j * turns into 0.0); the real part read alone, as the Cauchy
    # sums and the integral read it, is fitted alone and is that spline's column
    steps = data.draw(hnp.arrays(np.float64, n - 1, elements=st.floats(1e-3, 10.0)))
    grid = np.concatenate([[0.0], np.cumsum(steps)])
    parts = data.draw(hnp.arrays(np.float64, (2, n), elements=st.floats(-1e3, 1e3))) + 0.0
    curve = vm.ResponseCurve(grid, parts[0] + 1j * parts[1])
    assert curve._real_spline.c.tobytes() == PiecewiseCubic.not_a_knot(grid, parts[0]).c.tobytes()
    assert "_spline" not in vars(curve)
    fractions = data.draw(hnp.arrays(np.float64, n - 1, elements=st.floats(0.0, 1.0)))
    w = np.concatenate([grid, grid[:-1] + fractions * steps])
    w = np.concatenate([w, -w])
    real, imag = (PiecewiseCubic.not_a_knot(grid, part)(np.abs(w)) for part in parts)
    expected = real + 1j * imag
    expected = np.where(w >= 0, expected, np.conj(expected))
    assert curve(w).tobytes() == expected.tobytes()
    assert curve(w[-1]) == complex(expected[-1]) and isinstance(curve(w[-1]), complex)
    assert curve._real_spline.c.tobytes() == curve._spline.c[..., 0].tobytes()
