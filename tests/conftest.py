import numpy as np
import pytest

import vacmirror as vm


@pytest.fixture(scope="session")
def lorentzian():
    return vm.lorentzian_mirror()


@pytest.fixture(scope="session")
def perfect():
    return vm.perfect_mirror()


@pytest.fixture(scope="session")
def mech_default():
    return vm.MirrorMechanics(m=1.0, k=0.0, tau=1e-3)


def make_tabulated_copy(omega_max=12.0, step=2e-3, log_from=2.0, log_points=2000):
    """Tabulated resampling of the Lorentzian: dense linear head, log tail."""
    m = vm.lorentzian_mirror()
    head = np.arange(0.0, min(log_from, omega_max), step)
    if omega_max > log_from:
        tail = np.geomspace(log_from, omega_max, log_points)
        grid = np.unique(np.concatenate([head, tail]))
    else:
        grid = head
    return vm.tabulated_mirror(grid, vm.reflectivity(m, grid), vm.transmissivity(m, grid))


def make_blaschke_table(poles, top=1100.0):
    """The lossless all-pass mirror B(w) = prod (w - conj p)/(w - p) over ``poles``
    (Im p < 0), as r = (B - 1)/2 and s = (B + 1)/2 (|r|^2 + |s|^2 = 1), tabulated
    on the 1100-top table's kind of grid: a linear head to 2, a log tail to top.
    Its omega_C is 3 sum |Im p| exactly."""
    grid = np.unique(np.concatenate([np.arange(0.0, 2.0, 1e-2), np.geomspace(2.0, top, 2200)]))
    b = np.prod([(grid - np.conj(p)) / (grid - p) for p in poles], axis=0)
    return vm.tabulated_mirror(grid, (b - 1.0) / 2.0, (b + 1.0) / 2.0)


@pytest.fixture(scope="session")
def tabulated_copy():
    return make_tabulated_copy()
