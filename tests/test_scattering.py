import numpy as np
import pytest

import vacmirror as vm
from vacmirror.errors import ContinuationError, FrequencyRangeError

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
