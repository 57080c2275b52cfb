import numpy as np
import pytest

import vacmirror as vm
from vacmirror.errors import ContinuationError, FrequencyRangeError
from vacmirror.numerics import QuadratureSettings

from conftest import make_tabulated_copy


def test_perfect_mirror_amplitudes(perfect):
    ws = np.array([0.0, 0.3, 7.0, 1e4])
    assert np.all(vm.reflectivity(perfect, ws) == -1.0)
    assert np.all(vm.transmissivity(perfect, ws) == 0.0)
    # constant everywhere, including complex frequencies
    assert vm.reflectivity(perfect, 2.0 + 3.0j) == -1.0


def test_lorentzian_reference_points(lorentzian):
    assert vm.reflectivity(lorentzian, 0.0) == pytest.approx(-1.0)
    assert vm.transmissivity(lorentzian, 0.0) == pytest.approx(0.0)
    # r(Omega) = -(1+i)/2, s(Omega) = (1-i)/2
    assert vm.reflectivity(lorentzian, 1.0) == pytest.approx(-(1 + 1j) / 2)
    assert vm.transmissivity(lorentzian, 1.0) == pytest.approx((1 - 1j) / 2)


def test_reality_symmetry_all_kinds(lorentzian, perfect, tabulated_copy):
    ws = np.linspace(0.05, 5.0, 40)
    for model in (lorentzian, perfect, tabulated_copy):
        r_pos = vm.reflectivity(model, ws)
        r_neg = vm.reflectivity(model, -ws)
        s_pos = vm.transmissivity(model, ws)
        s_neg = vm.transmissivity(model, -ws)
        np.testing.assert_allclose(r_neg, np.conj(r_pos), atol=1e-14)
        np.testing.assert_allclose(s_neg, np.conj(s_pos), atol=1e-14)


def test_lorentzian_imaginary_axis_real_negative(lorentzian):
    ys = np.array([0.1, 1.0, 30.0])
    r = vm.reflectivity(lorentzian, 1j * ys)
    np.testing.assert_allclose(r, -1.0 / (1.0 + ys), rtol=1e-14)
    assert np.all((r.real > -1.0) & (r.real < 0.0))
    assert np.all(np.abs(r.imag) < 1e-15)


@pytest.mark.parametrize("omega", [1.0, 3.5])
def test_lorentzian_gamma_stays_finite_at_huge_frequencies(omega):
    # Gamma ~ 3 i Omega/w: forming x^3 overflowed past |w| ~ 5.6e102 Omega and
    # returned 0, then nan
    w = np.array([1e103, 1e200, 1e300])
    np.testing.assert_allclose(vm.lorentzian_gamma(w, omega), 3j * omega / w, rtol=1e-12)
    assert vm.lorentzian_gamma(1e200j, omega) == pytest.approx(3.0 * omega / 1e200, rel=1e-12)


def _lorentzian_probes(omega):
    """Real w of both signs, |w|/Omega log-spaced from 1e-9 to 1e300 and either side of
    1/4, and complex w with |x| = |w|/Omega in (0, 4), either side of 1/4 and 1/2, in
    both half planes, at least 0.2 rad from the cut below -i Omega."""
    s = np.concatenate([np.geomspace(1e-9, 1e300, 400),
                        0.25 * (1.0 + np.array([-1e-6, -1e-15, 0.0, 1e-15, 1e-6, 0.1]))])
    angle = np.linspace(-np.pi, np.pi, 16, endpoint=False) + 0.05
    rho, angle = (a.ravel() for a in np.meshgrid([1e-6, 0.01, 0.1, 0.249, 0.251, 0.499, 0.501,
                                                  0.7, 1.5, 3.9],
                                                 angle))
    keep = (rho < 1.0) | (np.abs(angle + 0.5 * np.pi) > 0.2)
    return omega * np.concatenate([s, -s]), omega * rho[keep] * np.exp(1j * angle[keep])


@pytest.mark.parametrize("omega", [1.0, 3.5])
def test_lorentzian_gamma_matches_mpmath(omega):
    # the real-arithmetic closed form at |w|/Omega >= 1/4 and the even and odd series
    # below, and the complex closed form and series, against -6 (-x + x^2/2 - (1 - x)
    # log(1 - x))/x^3 at x = i w/Omega to 40 digits: 1.6e-14 at worst at real w, and
    # 1.1e-14 at complex w, in the complex closed form at |x| = 0.501 (the series
    # below 1/2 reads 1.1e-16; the closed form read 4.6e-14 at |x| = 0.251 when it
    # took over at 1/4); Gamma[0] = 1
    mp = pytest.importorskip("mpmath")
    real, complex_w = _lorentzian_probes(omega)
    got = np.concatenate([vm.lorentzian_gamma(real, omega), vm.lorentzian_gamma(complex_w, omega)])
    assert np.all(np.isfinite(got))
    assert vm.lorentzian_gamma(0.0, omega) == 1.0 and vm.lorentzian_gamma(-0.0, omega) == 1.0
    assert vm.lorentzian_gamma(np.zeros(3), omega).tolist() == [1.0] * 3
    bounds = np.where(np.arange(got.size) < real.size, 2e-14, 1.5e-14)
    with mp.workdps(40):
        for w, g, bound in zip(np.concatenate([real, complex_w]), got, bounds):
            x = 1j * mp.mpc(complex(w)) / omega
            exact = -6 * (-x + x**2 / 2 - (1 - x) * mp.log(1 - x)) / x**3
            assert abs(mp.mpc(g) - exact) <= bound * abs(exact), w


def test_lorentzian_unitarity_exact(lorentzian):
    ws = np.geomspace(1e-2, 1e2, 1000)
    r = vm.reflectivity(lorentzian, ws)
    s = vm.transmissivity(lorentzian, ws)
    assert np.max(np.abs(np.abs(r) ** 2 + np.abs(s) ** 2 - 1.0)) < 1e-12


def test_lorentzian_lower_half_plane_rejected(lorentzian):
    with pytest.raises(ContinuationError):
        vm.reflectivity(lorentzian, 1.0 - 0.5j)


def test_tabulated_range_and_continuation_errors(tabulated_copy):
    hi = tabulated_copy.omega_range[1]
    with pytest.raises(FrequencyRangeError):
        vm.reflectivity(tabulated_copy, hi * 1.5)
    with pytest.raises(ContinuationError):
        vm.reflectivity(tabulated_copy, 1.0 + 1.0j)


def test_table_amplitudes_are_its_not_a_knot_splines():
    # r and s by Horner on the table's not-a-knot cubics, the pieces Gamma reads,
    # are scipy's CubicSpline evaluation to rounding (1.2e-16 at worst): on the
    # nodes, between them and at both ends of the 1100-top table, and conjugate
    # at -w
    from scipy.interpolate import CubicSpline

    model = make_tabulated_copy(omega_max=1100.0, step=1e-2, log_points=2200)
    w, r, s = model.table
    ws = np.concatenate([w, 0.5 * (w[1:] + w[:-1]), w[:-1] + 0.9 * np.diff(w)])
    for amplitude, data in ((vm.reflectivity, r), (vm.transmissivity, s)):
        spline = CubicSpline(w, data.real)(ws) + 1j * CubicSpline(w, data.imag)(ws)
        got = amplitude(model, ws)
        assert np.max(np.abs(got - spline)) < 1e-15
        np.testing.assert_array_equal(amplitude(model, -ws), np.conj(got))


def test_table_io_roundtrip(tmp_path, lorentzian):
    ws = np.linspace(0.0, 3.0, 301)
    path = tmp_path / "mirror.txt"
    vm.save_table(path, ws, vm.reflectivity(lorentzian, ws), vm.transmissivity(lorentzian, ws))
    loaded = vm.load_table(path)
    probe = np.linspace(0.1, 2.9, 17)
    np.testing.assert_allclose(
        vm.reflectivity(loaded, probe), vm.reflectivity(lorentzian, probe), atol=5e-6
    )


def test_load_table_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1.0 2.0\n1.0 1.0 2.0\n")
    with pytest.raises(ValueError):
        vm.load_table(path)


def test_validate_lorentzian_grid(lorentzian):
    grid = np.geomspace(1e-2, 1e2, 1000)
    report = vm.validate_model(lorentzian, grid)
    assert report.unitarity_defect < 1e-12
    assert report.causality_defect < 1e-3
    assert report.has_cutoff


def test_validate_perfect_flags_no_cutoff(perfect):
    grid = np.geomspace(1e-2, 1e2, 300)
    report = vm.validate_model(perfect, grid)
    assert report.transparency_tail == pytest.approx(1.0)
    assert not report.has_cutoff


def test_validate_leaves_an_unfitted_slope_unknown(lorentzian):
    # 3 samples in the top decade [10, 100]: no slope, so no cutoff verdict
    report = vm.validate_model(lorentzian, np.geomspace(1e-2, 1e2, 10))
    assert report.transparency_slope is None and report.has_cutoff is None
    assert report.transparency_tail < 0.5


def test_validate_tabulated_copy(tabulated_copy):
    grid = np.geomspace(1e-2, 10.0, 600)
    report = vm.validate_model(tabulated_copy, grid)
    assert report.unitarity_defect < 1e-6
    assert report.causality_defect < 1e-3


def test_validate_rejects_bad_grid(lorentzian):
    with pytest.raises(ValueError):
        vm.validate_model(lorentzian, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        vm.validate_model(lorentzian, np.array([]))


def test_tabulated_gain_detected():
    # a table with |r|^2 + |s|^2 > 1 shows up in the unitarity defect
    ws = np.linspace(0.0, 10.0, 400)
    model = make_tabulated_copy(omega_max=10.0, step=5e-3)
    r = vm.reflectivity(model, ws) * 1.05
    s = vm.transmissivity(model, ws)
    gained = vm.tabulated_mirror(ws, r, s)
    report = vm.validate_model(gained, np.geomspace(0.05, 9.0, 300))
    assert report.unitarity_defect > 1e-2


# r, s and Gamma of the factories' models on a fixed grid, recorded as
# "re im" hex floats from the last release that dispatched on the kind
# string; the model interface must reproduce them bitwise.  The table's
# were recorded again when its r and s became the not-a-knot splines of its
# samples (were PCHIP cubics): r and s moved only off the nodes, at 7.3, by
# 3.9e-8 and now lie 4.0e-9 from the Lorentzian's (3.6e-8 before); Gamma
# moved by at most 5.4e-3 (at 0.25), and its largest gap to the
# Lorentzian's, also at 0.25, fell from 5.7e-3 to 1.6e-3
_GRID = [-3.0, 0.0, 0.25, 1.0, 7.3]
_UPPER = [0.5 + 2j, 3j]
_LORENTZIAN_AT_GRID = {
    "r": [
        "-0x1.f1ca2c5a6dce9p-3 0x1.b739eae660e37p-2", "-0x1.0000000000000p+0 0x0.0p+0",
        "-0x1.f52966f6add88p-1 -0x1.26cd0f63edcabp-3", "-0x1.7c61660150f23p-1 -0x1.bf81a52eb9957p-2",
        "-0x1.a56942fc14c78p-5 -0x1.c465b516255dbp-3", "-0x1.ce0c7ce0c7cdfp-2 -0x1.f3831f3831f35p-5",
        "-0x1.72620ae4c415dp-2 0x0.0p+0",
    ],
    "s": [
        "0x1.838d74e9648c6p-1 0x1.b739eae660e37p-2", "0x0.0p+0 0x0.0p+0",
        "0x1.5ad3212a44f00p-6 -0x1.26cd0f63edcabp-3", "0x1.073d33fd5e1bap-2 -0x1.bf81a52eb9957p-2",
        "0x1.e5a96bd03eb38p-1 -0x1.c465b516255dbp-3", "0x1.18f9c18f9c190p-1 -0x1.f3831f3831f35p-5",
        "0x1.46cefa8d9df52p-1 0x0.0p+0",
    ],
    # re-recorded when the closed form's large-|x| branch stopped forming x^3
    # (it overflowed above |x| ~ 5.6e102): moved by at most 2.2e-15 relative
    "gamma": [
        "0x1.2d0f49fcb7a0cp-1 -0x1.c18de8d8ab2bep-2", "0x1.0000000000000p+0 0x0.0p+0",
        "0x1.fcb6449287479p-1 0x1.2a99d6005a7a6p-4", "0x1.d229daddb51f0p-1 0x1.09de74a19fe20p-2",
        "0x1.094895bd3be29p-2 0x1.7f5e45916a393p-2", "0x1.493aec12dbc10p-1 0x1.b4fcc3f9c2870p-5",
        "0x1.1d3d2483bc9d0p-1 -0x0.0p+0",
    ],
}
_TABULATED_AT_GRID = {
    "r": [
        "-0x1.9999999999999p-4 0x1.3333333333333p-2", "-0x1.0000000000000p+0 0x0.0p+0",
        "-0x1.e1e1e1e1e1e1ep-1 -0x1.e1e1e1e1e1e1ep-3", "-0x1.0000000000000p-1 -0x1.0000000000000p-1",
        "-0x1.2dc9629ba9204p-6 -0x1.13615f282575ep-3",
    ],
    "s": [
        "0x1.ccccccccccccdp-1 0x1.3333333333333p-2", "0x0.0p+0 0x0.0p+0",
        "0x1.e1e1e1e1e1e20p-5 -0x1.e1e1e1e1e1e1ep-3", "0x1.0000000000000p-1 -0x1.0000000000000p-1",
        "0x1.f691b4eb22b70p-1 -0x1.13615f282575ep-3",
    ],
    # recorded from the exact piecewise Gauss-Legendre rule; the adaptive
    # quadrature these replaced was off by up to 2.1e-12
    "gamma": [
        "0x1.8385b136e4198p-2 -0x1.b14f2f9716a7ap-2", "0x1.0000000000000p+0 0x0.0p+0",
        "0x1.f6e834e253056p-1 0x1.f9d9760249054p-4", "0x1.95735bc1465bep-1 0x1.77e8a644d4a88p-2",
        "0x1.13418f0c9b912p-3 0x1.1ef59420e817ep-2",
    ],
}


def _from_hex(pairs):
    return np.array([complex(*(float.fromhex(x) for x in p.split())) for p in pairs])


def _interface_table():
    w = np.linspace(0.0, 10.0, 41)
    m = vm.lorentzian_mirror()
    return vm.tabulated_mirror(w, vm.reflectivity(m, w), vm.transmissivity(m, w))


@pytest.mark.parametrize("name", ["perfect", "lorentzian", "tabulated"])
def test_every_factory_answers_the_model_interface(name):
    if name == "perfect":
        model, ws, n = vm.perfect_mirror(), np.array(_GRID + _UPPER), len(_GRID) + 2
        want = {"r": [-1.0] * n, "s": [0.0] * n, "gamma": [1.0] * n}
    elif name == "lorentzian":
        model, ws = vm.lorentzian_mirror(1.7), np.array(_GRID + _UPPER)
        want = {key: _from_hex(v) for key, v in _LORENTZIAN_AT_GRID.items()}
    else:
        model, ws = _interface_table(), np.array(_GRID)
        want = {key: _from_hex(v) for key, v in _TABULATED_AT_GRID.items()}
    got = {"r": vm.reflectivity(model, ws), "s": vm.transmissivity(model, ws),
           "gamma": vm.gamma_samples(model, ws)}
    for key, values in want.items():
        np.testing.assert_array_equal(got[key], np.array(values, dtype=complex), err_msg=key)
    if name == "tabulated":
        tight = QuadratureSettings(abs_tol=1e-13, max_panels=40000)
        quad = np.array([vm.gamma(model, float(w), tight) for w in ws])
        assert np.max(np.abs(got["gamma"] - quad)) < 1e-11
    # scalars come back as Python complex, equal to the array entries
    assert vm.reflectivity(model, ws[2]) == got["r"][2]
    assert type(vm.transmissivity(model, ws[2])) is complex
    assert isinstance(model, vm.MirrorModel) and model.kind == name
    assert model.omega_range == ((0.0, 10.0) if name == "tabulated" else (0.0, np.inf))
    assert model.gamma_is_one == (name == "perfect")


def test_loaded_table_is_the_tabulated_model(tmp_path):
    model = _interface_table()
    vm.save_table(tmp_path / "t.txt", *model.table)
    loaded = vm.load_table(tmp_path / "t.txt")
    same = vm.tabulated_mirror(*loaded.table)
    ws = np.array(_GRID)
    for f in (vm.reflectivity, vm.transmissivity, vm.gamma_samples):
        np.testing.assert_array_equal(f(loaded, ws), f(same, ws))
    assert (loaded.kind, loaded.omega_range, loaded.gamma_is_one) == (
        "tabulated", (0.0, 10.0), False)
