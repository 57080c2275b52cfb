import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

import vacmirror
from vacmirror import numerics
from vacmirror.dynamics import export_energy_csv, export_run_csv
from vacmirror.numerics import (
    _CSV_BLOCK,
    QuadratureSettings,
    adaptive_gauss_legendre,
    cubic_cauchy,
    pv_hilbert_even,
    running_integral,
    tail_cauchy,
    tail_integral,
    write_csv,
)

from test_dynamics import make_kernel

_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_TABLES = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=_ANY_FLOAT,
)
_EDGE_ROW = np.array([[-0.0, 5e-324, -2.2e-308, np.inf, -np.inf, np.nan, 1e300, -3e-250]])


def row_formatted_csv(header, columns):
    """The row-by-row writer that write_csv replaced, kept as its oracle."""
    text = header + "\n"
    for row in zip(*columns):
        text += ",".join(f"{x:.11e}" for x in row) + "\n"
    return text.encode()


@settings(max_examples=200, deadline=None)
@given(table=_TABLES)
@example(table=_EDGE_ROW)
@example(table=_EDGE_ROW.T.copy())
def test_write_csv_matches_row_formatter(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = ",".join(f"c{j}" for j in range(table.shape[1]))
    columns = list(table.T)
    write_csv(path, header, columns)
    assert path.read_bytes() == row_formatted_csv(header, columns)


@pytest.mark.parametrize("rows", [_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 7])
def test_write_csv_matches_row_formatter_across_blocks(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 8)) * 10.0 ** rng.integers(-320, 300, (rows, 8))
    table[-1] = _EDGE_ROW
    path = tmp_path / "table.csv"
    header = "t,q,v,a,F_a,W_a,E,W_m"
    write_csv(path, header, list(table.T))
    assert path.read_bytes() == row_formatted_csv(header, list(table.T))


def _step(x, steps):
    """x moved by ``steps`` units in the last place."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.copysign(np.inf, steps)))
    return x


_SUBNORMAL_MAX = 2.2250738585072014e-308
_EXACT_TIES = st.one_of(
    # 13 significant digits ending in 5: integers, and 1 + odd/4096
    st.integers(10**11, 10**12 - 1).map(lambda n: float(10 * n + 5)),
    st.integers(0, 2047).map(lambda j: (4096 + 2 * j + 1) / 4096),
)
_CARRIES = st.builds(  # next to 9.999999999995e+-n, which rounds up into the next decade
    lambda n, steps: _step(float(f"9.999999999995e{n}"), steps),
    st.integers(-320, 308), st.integers(-3, 3),
)
_WIDE_EXPONENTS = st.builds(  # both sides of 1e+-99 and 1e+-100
    lambda sign, n, lead, steps: sign * _step(float(f"{lead}e{n}"), steps),
    st.sampled_from([1.0, -1.0]), st.sampled_from([-101, -100, -99, 98, 99, 100]),
    st.sampled_from(["1", "9.999999999995"]), st.integers(-2, 2),
)
_HARD_VALUES = st.one_of(
    _EXACT_TIES, _CARRIES, _WIDE_EXPONENTS,
    st.floats(min_value=-_SUBNORMAL_MAX, max_value=_SUBNORMAL_MAX, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_MIXED_BLOCK = [0.125, -3.5, 4097 / 4096, np.nan, 2.0, np.inf, -1e-3, -np.inf]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_HARD_VALUES, min_size=1, max_size=48),
       rows=st.integers(1, 12), cols=st.integers(1, 8))
@example(values=[4097 / 4096, 1234567890125.0, 4095 / 4096], rows=1, cols=3)
@example(values=[_step(9.999999999995e-7, s) for s in (-2, -1, 0, 1, 2)]
         + [_step(9.999999999995e99, s) for s in (-1, 0, 1)], rows=2, cols=4)
@example(values=[1e99, _step(1e99, -1), 1e100, _step(1e100, -1),
                 -1e-99, _step(-1e-99, 1), -1e-100, _step(-1e-100, 1)], rows=1, cols=8)
@example(values=[-0.0, 5e-324, -5e-324, _SUBNORMAL_MAX, -2.5e-310, 0.0], rows=3, cols=2)
@example(values=_MIXED_BLOCK, rows=_CSV_BLOCK - 1, cols=8)
@example(values=_MIXED_BLOCK, rows=_CSV_BLOCK, cols=8)
@example(values=_MIXED_BLOCK, rows=_CSV_BLOCK + 1, cols=8)
@example(values=_MIXED_BLOCK, rows=2 * _CSV_BLOCK + 7, cols=7)
def test_write_csv_matches_row_formatter_on_hard_values(tmp_path_factory, values, rows, cols):
    # exact ties (rounded half to even), carries into the next decade,
    # three-digit exponents, subnormals, signed zeros and non-finite values,
    # tiled cyclically over rows x cols
    table = np.resize(np.array(values, dtype=np.float64), (rows, cols))
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = ",".join(f"c{j}" for j in range(cols))
    write_csv(path, header, list(table.T))
    assert path.read_bytes() == row_formatted_csv(header, list(table.T))


def test_write_csv_leaves_few_values_of_a_trajectory_to_the_fallback(tmp_path, monkeypatch):
    # a silent slide back to per-value formatting would keep the bytes and
    # lose the speed; a 20 k-step memory run must stay on the fast path
    mech = vacmirror.MirrorMechanics(k=2.25, tau=0.3)
    pulse = vacmirror.ForceProfile(kind="gaussian", amplitude=1e-3, center=5.0, width=1.5)
    traj = vacmirror.simulate_with_memory(mech, make_kernel(mech, 20.0, 1e-3), pulse, 20.0)
    ledger = vacmirror.energy_ledger(traj, mech)
    fallback = []
    original = numerics._format_fallback

    def counted(values):
        fallback.extend(values)
        return original(values)

    monkeypatch.setattr(numerics, "_format_fallback", counted)
    export_run_csv(tmp_path / "trajectory.csv", traj, ledger)
    export_energy_csv(tmp_path / "energy.csv", ledger)
    n_values = traj.times.size * (8 + 6)
    assert traj.times.size == 20001
    assert len(fallback) < 1e-3 * n_values


def test_write_csv_multiline_header(tmp_path):
    path = tmp_path / "kernel.csv"
    write_csv(path, "# dt = 1\nt,kappa", [np.array([0.0, 1.0]), np.array([2.0, -0.0])])
    assert path.read_text() == (
        "# dt = 1\nt,kappa\n"
        "0.00000000000e+00,2.00000000000e+00\n"
        "1.00000000000e+00,-0.00000000000e+00\n"
    )


_FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=64))
def test_running_integral_is_bitwise_scipy(data, n):
    y = data.draw(hnp.arrays(np.float64, n, elements=_FINITE))
    x = data.draw(hnp.arrays(np.float64, n, elements=_FINITE))
    oracle = cumulative_trapezoid(y, x, initial=0)
    assert running_integral(y, x).tobytes() == oracle.tobytes()


def test_running_integral_is_bitwise_scipy_on_a_ledger_grid():
    ts = np.arange(20001) * 1e-3
    power = np.sin(3.0 * ts) * np.exp(-0.1 * ts)
    oracle = cumulative_trapezoid(power, ts, initial=0)
    assert running_integral(power, ts).tobytes() == oracle.tobytes()


def pv_hilbert_per_probe(grid, values, w, tail=(0.0, 0.0, 0.0)):
    """The one-probe transform that the array form replaced, a spline per probe,
    kept as its oracle."""
    spline = CubicSpline(grid, values)
    L = grid[-1]
    fw = float(spline(w))
    dfw = float(spline(w, 1))
    denom = (grid - w) * (grid + w)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = (values - fw) * 2.0 * w / denom
    near = np.abs(grid - w) < 1e-12 * max(1.0, w)
    integrand[near] = dfw
    result = np.trapezoid(integrand, grid)
    result += fw * np.log((L - w) / (L + w))
    g0 = grid[0]
    if g0 > 0:
        result += (values[0] - fw) * np.log((w - g0) / (w + g0))
    if any(tail):
        result += tail_cauchy(tail, L, w).real
    return -result / np.pi


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(min_value=4, max_value=300),
       g0=st.sampled_from([0.0, 1e-3, 0.5, 3.0]),
       tail=st.sampled_from([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (-2.5, 0.7, 3.0),
                             (1e-3, -1e-3, 0.0)]),
       block=st.sampled_from([None, 1, 7, 1000]))
def test_pv_hilbert_probes_match_the_per_probe_transform_bitwise(data, n, g0, tail, block):
    steps = data.draw(hnp.arrays(np.float64, n - 1, elements=st.floats(1e-3, 2.0)))
    grid = g0 + np.concatenate([[0.0], np.cumsum(steps)])
    values = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
    # probes on interior grid nodes and anywhere strictly inside [g0, L)
    nodes = data.draw(st.lists(st.integers(1, n - 2), max_size=8))
    fractions = data.draw(st.lists(st.floats(1e-9, 1.0, exclude_max=True), max_size=8))
    probes = np.array([grid[i] for i in nodes] + [g0 + u * (grid[-1] - g0) for u in fractions])
    probes = probes[(probes > g0) & (probes < grid[-1])]
    # the block size fixes how many probes share one integrand array
    size = numerics._PV_BLOCK if block is None else block * grid.size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_PV_BLOCK", size)
        got = pv_hilbert_even(grid, values, CubicSpline(grid, values), probes, tail=tail)
    oracle = np.array([pv_hilbert_per_probe(grid, values, float(w), tail) for w in probes])
    assert got.shape == probes.shape
    assert got.tobytes() == oracle.tobytes()
    if probes.size:
        one = pv_hilbert_even(grid, values, CubicSpline(grid, values), float(probes[0]),
                              tail=tail)
        assert np.ndim(one) == 0 and np.float64(one).tobytes() == oracle[:1].tobytes()


def test_pv_hilbert_refuses_a_probe_outside_the_grid():
    grid = np.linspace(0.5, 10.0, 40)
    for bad in ([1.0, 10.0], [0.4, 2.0], [np.nan]):
        with pytest.raises(vacmirror.FrequencyRangeError):
            pv_hilbert_even(grid, np.exp(-grid), CubicSpline(grid, np.exp(-grid)), np.array(bad))


_TAIL_PROBES = [1e-9j, 1j, 10j, 499j, 501j, 1e3j, 1e4j, 1e9j,  # w = i y, |z| across 1/2 and 1
                1e-3, 100.0, 499.0, 501.0, 999.0,  # real, inside (0, L)
                300.0 + 400.0j, -700.0 + 2.0j, 5.0 + 1e-3j, 2000.0 + 1.0j, 1e5 + 1e5j]


# the Lorentzian's Gamma_R ~ 6 (ln w - 1)/w^2 + 3 pi/w^3 at Omega = 1, and the
# c/w^3 term alone
@pytest.mark.parametrize("tail", [(-6.0, 6.0, 3.0 * np.pi), (0.0, 0.0, 1.0)])
def test_tail_closed_forms_match_mpmath(tail):
    # int_L^inf ((a + b ln t)/t^2 + c/t^3) [2w/(t^2 - w^2)] dt at 30 digits: the
    # series below |w/L| = 1/2, atanh, Legendre's chi_2 and log above; 1e-13 relative
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    a, b, c = tail
    L = 1e3

    def decay(t):
        return (a + b * mp.log(t)) / t**2 + c / t**3

    cuts = [L, 2 * L, mp.inf]
    assert tail_integral(tail, L) == pytest.approx(float(mp.quad(decay, cuts)), rel=1e-14)
    got = tail_cauchy(tail, L, np.array(_TAIL_PROBES))
    for w, value in zip(_TAIL_PROBES, got):
        z = mp.mpc(w)
        exact = complex(mp.quad(lambda t: decay(t) * 2 * z / (t**2 - z**2), cuts))
        assert abs(value - exact) <= 1e-13 * abs(exact), w
    assert np.ndim(tail_cauchy(tail, L, 3j)) == 0


def test_cubic_cauchy_matches_adaptive_quadrature_on_the_spline():
    # the piece primitive against the adaptive oracle on the same spline, split
    # at the nodes and around Re w; near the axis and far from it
    x = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 350)])
    spline = CubicSpline(x, vacmirror.lorentzian_gamma(x).real)
    w = np.array([1e-6j, 1e-3j, 0.5j, 3.0 + 2.0j, -2.0 + 1e-4j, 500j, 1e6j, 2.5e-3 + 1e-5j])
    got = cubic_cauchy(spline.x, spline.c, w)
    tight = QuadratureSettings(abs_tol=1e-13, max_panels=100000)
    rays = np.geomspace(1.0, 1e12, 25)
    for value, pole in zip(got, w):
        near = pole.real + abs(pole.imag) * np.concatenate([[0.0], rays, -rays])
        cuts = np.unique(np.concatenate([x, near[(near > 0.0) & (near < x[-1])]]))
        oracle = sum(adaptive_gauss_legendre(lambda t: spline(t) / (t - pole), lo, hi, tight)[0]
                     for lo, hi in zip(cuts[:-1], cuts[1:]))
        assert abs(value - oracle) < 1e-11, pole


_HEAVY = ("scipy.integrate", "scipy.signal")
_PERFECT_RUN = """
[model]
kind = perfect

[mechanics]
tau_omega = 0.5

[simulation]
force = gaussian
t_final = 2.0
"""


def _loaded_after(code, tmp_path, heavy=_HEAVY):
    src = str(Path(vacmirror.__file__).resolve().parents[1])
    probe = f"import sys\n{code}\nprint(sorted(m for m in {heavy!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    assert _loaded_after("import vacmirror", tmp_path) == "[]"


def test_pv_hilbert_on_a_numpy_spline_loads_no_scipy(tmp_path):
    # F = 1/(1 + w^2), whose transform is w/(1 + w^2), with its exact slope
    run = ("import numpy as np\n"
           "from vacmirror.numerics import pv_hilbert_even\n"
           "grid = np.linspace(0.0, 200.0, 20001)\n"
           "def spline(x, nu=0):\n"
           "    return 1.0 / (1.0 + x * x) if nu == 0 else -2.0 * x / (1.0 + x * x) ** 2\n"
           "w = np.array([0.5, 1.0, 3.0])\n"
           "got = pv_hilbert_even(grid, spline(grid), spline, w, tail=(1.0, 0.0, 0.0))\n"
           "assert np.max(np.abs(got - w / (1.0 + w * w))) < 1e-6, got")
    assert _loaded_after(run, tmp_path, heavy=("scipy",)) == "[]"


def test_perfect_simulate_leaves_heavy_scipy_unloaded(tmp_path):
    (tmp_path / "run.cfg").write_text(_PERFECT_RUN)
    run = ("from vacmirror.cli import main\n"
           "assert main(['simulate', '--config', 'run.cfg', '--out', 'out']) == 0")
    assert _loaded_after(run, tmp_path) == "[]"
