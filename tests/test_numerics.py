import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
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
from vacmirror.dynamics import export_simulation_csv
from vacmirror.numerics import (
    _CSV_BLOCK,
    PiecewiseCubic,
    QuadratureSettings,
    adaptive_gauss_legendre,
    cubic_cauchy,
    fft_length,
    running_integral,
    secant_root,
    tail_cauchy,
    tail_integral,
    write_csv,
    write_csv_files,
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


# a block holds _CSV_BLOCK // cols whole rows: the edges of the first block for
# the widths of kernel.csv, energy.csv and trajectory.csv; the cases below are
# named by row count alone, which fixes the width
_BLOCK_EDGES = [(cols, _CSV_BLOCK // cols + d) for cols in (2, 6, 8) for d in (-1, 0, 1)]
_ACROSS_BLOCKS = _BLOCK_EDGES + [(8, 2 * (_CSV_BLOCK // 8) + 7), (8, 1)]


@pytest.mark.parametrize("cols, rows", _ACROSS_BLOCKS, ids=[str(rows) for _, rows in _ACROSS_BLOCKS])
def test_write_csv_matches_row_formatter_across_blocks(tmp_path, cols, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-320, 300, (rows, cols))
    table[-1] = np.resize(_EDGE_ROW, cols)
    path = tmp_path / "table.csv"
    header = ",".join(f"c{j}" for j in range(cols))
    write_csv(path, header, list(table.T))
    assert path.read_bytes() == row_formatted_csv(header, list(table.T))


@settings(max_examples=500, deadline=None)
@given(x=st.floats(min_value=numerics._TINY, max_value=sys.float_info.max),
       shift=st.sampled_from([-1, 0, 1]))
@example(x=9.999999999995e-7, shift=0)
@example(x=numerics._TINY, shift=-1)
@example(x=sys.float_info.max, shift=1)
def test_one_rounded_product_stays_within_the_tie_margin(x, shift):
    # the bound the writer's _TIE_MARGIN rests on: at the decade e of x or one
    # off it, fl(x * fl(10^(11 - e))) is within the margin of the exact
    # x * 10^(11 - e) wherever that is below 10^12, with fl(10^k) from the
    # writer's table correctly rounded
    k = 11 - (math.floor(math.log10(x)) + shift)
    scale = numerics._csv_tables()[0][k - numerics._K_MIN]
    assert scale == float(Fraction(10) ** k)
    exact = Fraction(x) * Fraction(10) ** k
    if exact < 10**12:
        assert abs(Fraction(x * scale) - exact) < numerics._TIE_MARGIN


def _step(x, steps):
    """x moved by ``steps`` units in the last place."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.copysign(np.inf, steps)))
    return x


_SUBNORMAL_MAX = 2.2250738585072014e-308
_SIGNALLING_NAN = float(np.uint64(0x7FF0000000000001).view(np.float64))
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
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, _SIGNALLING_NAN]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_MIXED_BLOCK = [0.125, -3.5, 4097 / 4096, np.nan, 2.0, np.inf, -1e-3, -np.inf]


def _at_block_edges(test):
    """The _MIXED_BLOCK example at every block edge and across three blocks."""
    for cols, rows in _BLOCK_EDGES + [(7, 2 * (_CSV_BLOCK // 7) + 7)]:
        test = example(values=_MIXED_BLOCK, rows=rows, cols=cols)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_HARD_VALUES, min_size=1, max_size=48),
       rows=st.integers(1, 12), cols=st.integers(1, 8))
@example(values=[4097 / 4096, 1234567890125.0, 4095 / 4096], rows=1, cols=3)
@example(values=[_step(9.999999999995e-7, s) for s in (-2, -1, 0, 1, 2)]
         + [_step(9.999999999995e99, s) for s in (-1, 0, 1)], rows=2, cols=4)
@example(values=[1e99, _step(1e99, -1), 1e100, _step(1e100, -1),
                 -1e-99, _step(-1e-99, 1), -1e-100, _step(-1e-100, 1)], rows=1, cols=8)
@example(values=[-0.0, 5e-324, -5e-324, _SUBNORMAL_MAX, -2.5e-310, 0.0], rows=3, cols=2)
@_at_block_edges
@pytest.mark.filterwarnings("error")
def test_write_csv_matches_row_formatter_on_hard_values(tmp_path_factory, values, rows, cols):
    # exact ties (rounded half to even), carries into the next decade,
    # three-digit exponents, subnormals, signed zeros and non-finite values,
    # tiled cyclically over rows x cols; a signalling nan raises no warning
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
    fallback, formatted = [], []
    original, block = numerics._format_fallback, numerics._format_block

    def counted(values):
        fallback.extend(values)
        return original(values)

    monkeypatch.setattr(numerics, "_format_fallback", counted)
    monkeypatch.setattr(numerics, "_format_block", lambda x: formatted.append(x.size) or block(x))
    export_simulation_csv(tmp_path, traj, ledger)
    assert traj.times.size == 20001
    assert sum(formatted) == traj.times.size * 9  # t, q, v, a, F_a, W_a, E, W_m, residual
    assert len(fallback) < 1e-3 * sum(formatted)


def test_write_csv_multiline_header(tmp_path):
    path = tmp_path / "kernel.csv"
    write_csv(path, "# dt = 1\nt,kappa", [np.array([0.0, 1.0]), np.array([2.0, -0.0])])
    assert path.read_text() == (
        "# dt = 1\nt,kappa\n"
        "0.00000000000e+00,2.00000000000e+00\n"
        "1.00000000000e+00,-0.00000000000e+00\n"
    )


def even_5_smooth(x):
    """Whether each integer of x is even with no prime factor above 5."""
    x = np.asarray(x, dtype=np.int64)
    rest = x.copy()
    for p in (2, 3, 5):
        for _ in range(int(x.max(initial=1)).bit_length()):
            rest = np.where(rest % p == 0, rest // p, rest)
    return (x % 2 == 0) & (rest == 1)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=2**22))
@example(n=1)
@example(n=2 * 32769)  # the kernel period just past 2^15 steps
@example(n=2**22)
def test_fft_length_is_the_least_even_5_smooth_length(n):
    length = fft_length(n)
    assert length >= n and even_5_smooth([length])[0]
    # brute force: no length from n up has all three properties
    assert not even_5_smooth(np.arange(n, length)).any()


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


def _graded_grid(data, n):
    """n nodes from 0 or above it, with steps spread over six decades."""
    x0 = data.draw(st.sampled_from([0.0, 1e-3, 0.7, 50.0]))
    exps = data.draw(hnp.arrays(np.float64, n - 1, elements=st.floats(-3.0, 3.0)))
    return x0 + np.concatenate([[0.0], np.cumsum(10.0**exps)])


def _assert_scipys_to_the_bit(ours, theirs, probes):
    assert ours.c.tobytes() == theirs.c.tobytes()
    assert ours(probes).tobytes() == theirs(probes).tobytes()
    assert ours.integral() == float(theirs.integrate(ours.x[0], ours.x[-1]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(min_value=4, max_value=400))
def test_piecewise_cubic_is_scipys_to_the_bit(data, n):
    # not-a-knot against CubicSpline, on graded grids where the spline's solve
    # swaps rows as LAPACK's gtsv does: the coefficients, the values on the
    # nodes, between them and at exactly both ends, and the integral over the
    # grid against PPoly.integrate, all bitwise (y + 0.0 drops -0.0, which
    # scipy's evaluation turns into 0.0 at a node)
    x = _graded_grid(data, n)
    y = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3))) + 0.0
    fractions = data.draw(hnp.arrays(np.float64, n - 1, elements=st.floats(0.0, 1.0)))
    probes = np.concatenate([x, x[:-1] + fractions * np.diff(x), [x[0], x[-1]]])
    _assert_scipys_to_the_bit(PiecewiseCubic.not_a_knot(x, y), CubicSpline(x, y), probes)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_three_sample_spline_is_the_parabola(data):
    # with 3 samples not-a-knot is the parabola through them; scipy solves it
    # densely, so only to within 1e-8 of each piece's largest coefficient on the
    # graded grids (8.2e-10 at worst over 20000 draws)
    x = _graded_grid(data, 3)
    y = data.draw(hnp.arrays(np.float64, 3, elements=st.floats(-1e3, 1e3)))
    ours, theirs = PiecewiseCubic.not_a_knot(x, y).c, CubicSpline(x, y).c
    assert np.all(np.abs(ours - theirs) <= 1e-8 * np.max(np.abs(theirs), axis=0))
    with pytest.raises(ValueError):
        PiecewiseCubic.not_a_knot(x[:2], y[:2])


def test_piecewise_cubic_is_scipys_on_the_production_grids(tmp_path):
    # the 351-node Gamma curve (both parts, a Lorentzian and the fixture table),
    # simulate's 1601-node chi curve at dt = 1e-3, a 4001-node uniform grid,
    # and the parts of r and s of a table file at the benchmark's node density
    from conftest import make_tabulated_copy
    from vacmirror.analysis import sample_gamma_real

    lorentzian = vacmirror.lorentzian_mirror(1.7)
    table = make_tabulated_copy(omega_max=1100.0, step=1e-2, log_points=2200)
    chi_grid = np.concatenate([[0.0], np.geomspace(1e-3, np.pi / 1e-3, 1600)])
    kk_grid = np.linspace(0.0, 400.0, 4001)
    curves = [(c.grid, c.values) for c in (sample_gamma_real(lorentzian), table.gamma_curve)]
    curves += [(chi_grid, 0.03j * chi_grid**3 * vacmirror.gamma_samples(lorentzian, chi_grid)),
               (kk_grid, vacmirror.gamma_samples(lorentzian, kk_grid))]
    for x, values in curves:
        for part in (values.real, values.imag):
            _assert_scipys_to_the_bit(PiecewiseCubic.not_a_knot(x, part), CubicSpline(x, part), x)
    bench = make_tabulated_copy(omega_max=1100.0, step=2e-3, log_points=2200)
    vacmirror.save_table(tmp_path / "table.txt", *bench.table)
    w, r, s = vacmirror.load_table(tmp_path / "table.txt").table
    for part in (r.real, r.imag, s.real, s.imag):
        _assert_scipys_to_the_bit(PiecewiseCubic.not_a_knot(w, part), CubicSpline(w, part), w)


_RAYS = np.concatenate([[0.0], np.geomspace(1.0, 1e12, 25)])


def axis_oracle(spline, tail, w, scale):
    """The real-axis sum sum_i int p_i(t) [1/(t - w) - 1/(t + w)] dt plus the tail's
    int_L^inf by adaptive quadrature: the principal value as the subtracted integrand
    (S(t) - S(w))/(t - w), split at the knots and at w, plus S(w) log((L - w)/(w - x_0));
    the tail at t = L + s on [L, 2L], with t - w = s + (L - w), and at t = 2L/u above.
    The imaginary part, pi S(w), is the residue from above.  A node that rounds onto w
    (on a panel a few ulps wide, between w and a knot next to it) takes the limit S'(w)."""
    x, L = spline.x, spline.x[-1]
    a, b, c = tail
    sw, slope = float(spline(w)), float(spline(w, 1))
    tight = QuadratureSettings(abs_tol=1e-13 * scale, max_panels=4000)

    def pieces(t):
        s = spline(t)
        gap = t - w
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(gap == 0.0, slope, (s - sw) / gap) - s / (t + w)

    def decay(t):
        return (a + b * np.log(t)) / t**2 + c / t**3

    def near(s):
        return decay(L + s) * 2.0 * w / ((s + (L - w)) * (L + s + w))

    def far(u):
        t = 2.0 * L / u
        return decay(t) * 2.0 * w / ((t - w) * (t + w)) * t / u

    def integral(f, lo, hi, pole):  # cut points closing geometrically on a pole outside
        gap = min(abs(lo - pole), abs(hi - pole))
        cuts = pole + np.sign(lo + hi - 2.0 * pole) * gap * _RAYS
        cuts = np.unique(np.concatenate([[lo, hi], cuts[(cuts > lo) & (cuts < hi)]]))
        return sum(adaptive_gauss_legendre(f, u, v, tight)[0].real
                   for u, v in zip(cuts[:-1], cuts[1:]))

    # the pieces split at w; the pole of 1/(t + w) lies at -w, that of the tail L - w below L
    cuts = np.unique(np.concatenate([x, [w]]))
    total = sum(integral(pieces, lo, hi, -w) for lo, hi in zip(cuts[:-1], cuts[1:]))
    total += sw * np.log((L - w) / (w - x[0]))
    total += integral(near, 0.0, L, w - L) + integral(far, 0.0, 1.0, -1.0)
    return complex(total, np.pi * sw)


@st.composite
def _axis_splines(draw):
    """(g0, steps, values, nodes, fractions): a spline's knots g0 + cumsum(steps)
    with its values, and its probes' inner knot indices and fractions of its span."""
    n = draw(st.integers(min_value=4, max_value=40))
    return (draw(st.sampled_from([0.0, 1e-3, 0.5, 3.0])),
            draw(hnp.arrays(np.float64, n - 1, elements=st.floats(1e-3, 2.0))),
            draw(hnp.arrays(np.float64, n, elements=st.floats(-10.0, 10.0))),
            draw(st.lists(st.integers(1, n - 2), max_size=4)),
            draw(st.lists(st.floats(1e-9, 1.0, exclude_max=True), max_size=4)))


@settings(max_examples=60, deadline=None)
@given(case=_axis_splines(),
       tail=st.sampled_from([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (-2.5, 0.7, 3.0),
                             (1e-3, -1e-3, 0.0)]),
       block=st.sampled_from([None, 1, 7, 1000]))
# a draw found in a 1500-example run: a zero spline on 37 knots 1e-3 apart,
# probed at w = L/3 = 0.012000000000000007, two ulps above the knot x_12, where
# a node of the oracle's subtracted integrand rounded onto w and read 0/0
@example(case=(0.0, np.full(36, 1e-3), np.zeros(37), [], [1 / 3]), tail=(0.0, 0.0, 0.0),
         block=None)
def test_cubic_cauchy_on_the_axis_is_the_boundary_value(case, tail, block):
    # the two real-axis sums at +-w and the tail against the adaptive oracle to
    # 1e-11 of the data's scale: probes on inner knots, inside pieces and next to
    # both ends (1e-9 L below the top L, where tail_cauchy forms 1 - w/L as
    # (L - w)/L); an array of w is bitwise its one-w calls, whatever the block size
    g0, steps, values, nodes, fractions = case
    n = values.size
    x = g0 + np.concatenate([[0.0], np.cumsum(steps)])
    spline = CubicSpline(x, values)
    ends = [x[0] + 1e-9 * (x[1] - x[0]), x[-1] * (1.0 - 1e-9)]
    w = np.array([x[i] for i in nodes] + [x[0] + u * (x[-1] - x[0]) for u in fractions] + ends)
    w = w[(w > x[0]) & (w <= ends[-1])]
    size = numerics._PV_BLOCK if block is None else block * 8 * (n - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_PV_BLOCK", size)
        plus, minus = cubic_cauchy(spline.x, spline.c, w), cubic_cauchy(spline.x, spline.c, -w)
    for k, probe in enumerate(w):
        one = cubic_cauchy(spline.x, spline.c, probe[None])
        assert one.tobytes() == plus[k : k + 1].tobytes()
        assert cubic_cauchy(spline.x, spline.c, -probe[None]).tobytes() == minus[k : k + 1].tobytes()
    assert not np.any(minus.imag)  # -w lies below the pieces
    got = plus - minus + tail_cauchy(tail, x[-1], w)
    # the data's scale: the spline's largest value and the tail's (a, b, c) at the top
    dense = x[:-1, None] + np.diff(x)[:, None] * np.linspace(0.0, 1.0, 17)
    a, b, c = np.abs(tail)
    scale = max(np.max(np.abs(spline(dense))), (a + b * abs(np.log(x[-1])) + c / x[-1]) / x[-1]**2)
    for value, probe in zip(got, w):
        assert abs(value - axis_oracle(spline, tail, float(probe), scale)) <= 1e-11 * scale, probe


_TAIL_PROBES = [1e-9j, 1j, 10j, 499j, 501j, 1e3j, 1e4j, 1e9j,  # w = i y, |z| across 1/2 and 1
                1e-3, 100.0, 499.0, 501.0, 999.0,  # real, inside (0, L)
                300.0 + 400.0j, -700.0 + 2.0j, 5.0 + 1e-3j, 2000.0 + 1.0j, 1e5 + 1e5j,
                1e3 * (1.0 - 1e-6), 1e3 * (1.0 - 1e-9), 1e3 * (1.0 - 1e-12)]  # next to L


# the Lorentzian's Gamma_R ~ 6 (ln w - 1)/w^2 + 3 pi/w^3 at Omega = 1, and the
# c/w^3 term alone
@pytest.mark.parametrize("tail", [(-6.0, 6.0, 3.0 * np.pi), (0.0, 0.0, 1.0)])
def test_tail_closed_forms_match_mpmath(tail):
    # int_L^inf ((a + b ln t)/t^2 + c/t^3) [2w/(t^2 - w^2)] dt at 30 digits: the
    # series below |w/L| = 1/2, atanh, Legendre's chi_2 and log above; 1e-13
    # relative, also a hair below L, where 1 - w/L would lose eps L/(L - w) if rounded
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
        gap = abs(L - w)  # cut points closing geometrically on a pole next to L
        near = [L + gap * 10**k for k in range(14) if gap * 10**k < L]
        exact = complex(mp.quad(lambda t: decay(t) * 2 * z / (t**2 - z**2), [L] + near + cuts[1:]))
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


_PERFECT_RUN = """
[model]
kind = perfect

[mechanics]
tau_omega = 0.5

[simulation]
force = gaussian
t_final = 2.0
"""
# the baseline Lorentzian (Omega = 1, tau Omega = 0.03, k/m = 0.5), its simulate
# in the memory regime
_LORENTZIAN_RUN = """
[model]
kind = lorentzian

[mechanics]
tau_omega = 0.03
k_over_m = 0.5

[simulation]
t_final = 2.0
"""


def _loaded_after(code, tmp_path):
    """The scipy modules loaded once ``code`` has run in a fresh process."""
    src = str(Path(vacmirror.__file__).resolve().parents[1])
    probe = (f"import sys\n{code}\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    assert _loaded_after("import vacmirror", tmp_path) == "[]"


def test_cubic_cauchy_on_hand_built_pieces_loads_no_scipy(tmp_path):
    # F = 1/(1 + t^2), the real part of 1/(1 - i w), in cubic Hermite pieces with its
    # exact slopes: the real-axis sums give its Kramers-Kronig partner w/(1 + w^2)
    run = ("import numpy as np\n"
           "from vacmirror.numerics import cubic_cauchy, tail_cauchy\n"
           "x = np.linspace(0.0, 200.0, 20001)\n"
           "h, f, d = np.diff(x), 1.0 / (1.0 + x * x), -2.0 * x / (1.0 + x * x) ** 2\n"
           "s = np.diff(f) / h\n"
           "c = np.array([(d[:-1] + d[1:] - 2.0 * s) / h**2, (3.0 * s - 2.0 * d[:-1] - d[1:]) / h,"
           " d[:-1], f[:-1]])\n"
           "w = np.array([0.5, 1.0, 3.0])  # 1.0 and 3.0 lie on knots\n"
           "got = (cubic_cauchy(x, c, w) - cubic_cauchy(x, c, -w)"
           " + tail_cauchy((1.0, 0.0, 0.0), x[-1], w)) / (1j * np.pi)\n"
           "assert np.max(np.abs(got - 1.0 / (1.0 - 1j * w))) < 1e-9, got")
    assert _loaded_after(run, tmp_path) == "[]"


def test_perfect_simulate_leaves_heavy_scipy_unloaded(tmp_path):
    (tmp_path / "run.cfg").write_text(_PERFECT_RUN)
    run = ("from vacmirror.cli import main\n"
           "assert main(['simulate', '--config', 'run.cfg', '--out', 'out']) == 0")
    assert _loaded_after(run, tmp_path) == "[]"


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    from conftest import make_tabulated_copy

    directory = tmp_path_factory.mktemp("table")
    table = make_tabulated_copy(omega_max=1100.0, step=1e-2, log_points=2200).table
    vacmirror.save_table(directory / "table.txt", *table)
    (directory / "run.cfg").write_text(f"[model]\nkind = tabulated\ntable = {directory / 'table.txt'}\n"
                                       "[mechanics]\ntau_omega = 0.4\n")
    return directory / "run.cfg"


@pytest.mark.parametrize("command,kind", [
    ("analyze", "lorentzian"), ("stability", "lorentzian"), ("simulate", "lorentzian"),
    ("crosscheck", "lorentzian"), ("analyze", "tabulated"), ("stability", "tabulated")])
def test_commands_load_no_scipy(tmp_path, table_run, command, kind):
    # the runtime is NumPy alone: each command in a fresh process, a table's
    # stability through its Cauchy continuation (tau Omega = 0.4 has a runaway root)
    cfg = table_run
    if kind == "lorentzian":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_LORENTZIAN_RUN)
    run = ("from vacmirror.cli import main\n"
           f"assert main([{command!r}, '--config', {str(cfg)!r}, '--out', 'out']) == 0")
    assert _loaded_after(run, tmp_path) == "[]"


# each file: its row count (cut to the table's) and the table columns it holds
_FILE_SPECS = st.lists(
    st.tuples(st.integers(0, 14), st.lists(st.integers(0, 7), min_size=1, max_size=7)),
    min_size=1, max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(table=hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 6)),
                        elements=_ANY_FLOAT),
       files=_FILE_SPECS, fortran=st.booleans())
@example(table=np.resize(_EDGE_ROW, (3, 8)), files=[(3, [0, 1, 2, 3, 4, 5, 6, 7]),
                                                   (2, [7, 6, 5, 4, 3]), (1, [0, 0])],
         fortran=False)
@example(table=np.resize(_EDGE_ROW, (5, 8)),
         files=[(5, [0, 1, 2, 3]), (4, [0, 4, 5, 6, 7]), (0, [1])], fortran=True)
def test_write_csv_files_match_row_formatter_with_shared_columns(tmp_path_factory, table,
                                                                 files, fortran):
    # every column is a view of the first rows of a table column, so files of
    # different lengths hold one array, a prefix view of it, or both
    table = np.asfortranarray(table) if fortran else table
    out = tmp_path_factory.mktemp("csv")
    specs = []
    for i, (rows, picks) in enumerate(files):
        columns = [table[:rows, j % table.shape[1]] for j in picks]
        specs.append((out / f"f{i}.csv", ",".join(f"c{j}" for j in picks), columns))
    write_csv_files(specs)
    for path, header, columns in specs:
        assert path.read_bytes() == row_formatted_csv(header, columns)


@pytest.mark.parametrize("rows", [_CSV_BLOCK // 10 + d for d in (-1, 0, 1)]
                         + [2 * (_CSV_BLOCK // 10) + 7])
def test_write_csv_files_match_row_formatter_across_blocks(tmp_path, rows):
    # a memory run's layout: 10 distinct columns over three files, the kernel
    # file one row shorter and holding a prefix view of t
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((10, rows)) * 10.0 ** rng.integers(-320, 300, (10, rows))
    table[:, -1] = np.resize(_EDGE_ROW, 10)
    t, q, v, a, f, w_a, e, w_m, r, kappa = table
    specs = [
        (tmp_path / "trajectory.csv", "t,q,v,a,F_a,W_a,E,W_m", [t, q, v, a, f, w_a, e, w_m]),
        (tmp_path / "energy.csv", "t,W_a,E,delta_E,W_m,residual", [t, w_a, e, e, w_m, r]),
        (tmp_path / "kernel.csv", "t,kappa", [t[:-1], kappa[:-1]]),
    ]
    write_csv_files(specs)
    for path, header, columns in specs:
        assert path.read_bytes() == row_formatted_csv(header, columns)


def test_write_csv_files_never_alias_distinct_arrays(tmp_path):
    # equal values, different bytes: a column is shared by its data, never
    # by its values
    zeros, signed = np.array([0.0, 1.5, 0.0]), np.array([-0.0, 1.5, -0.0])
    assert np.array_equal(zeros, signed)
    # one data address, two strides
    base = np.arange(8.0)
    # lists: each converted to a fresh array, whose address a dropped one
    # could hand on to the next
    lists = [[float(j)] * 4 for j in range(6)]
    specs = [
        (tmp_path / "signs.csv", "a,b", [zeros, signed]),
        (tmp_path / "copies.csv", "a,b", [signed.copy(), zeros.copy()]),
        (tmp_path / "strides.csv", "a,b", [base[:4], base[::2]]),
        (tmp_path / "lists.csv", "a,b,c,d,e,f", lists),
        (tmp_path / "single.csv", "a,b", [np.float32([0.1, 2.5, -3.0, 7.0]), lists[0]]),
    ]
    write_csv_files(specs)
    for path, header, columns in specs:
        assert path.read_bytes() == row_formatted_csv(header, columns)


def test_write_csv_files_refuse_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", "a,b", [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        write_csv_files([(tmp_path / "u.csv", "a", [np.zeros(3)]),
                         (tmp_path / "v.csv", "a,b", [np.zeros(2), np.zeros(3)[1:2]])])
    assert not (tmp_path / "u.csv").exists()  # refused before any file is opened


def test_write_csv_holds_no_copy_of_the_table(tmp_path):
    # the table takes 6.4 MB, and a copy of it as much again; one block's
    # arrays peak near 1.2 MB
    table = np.random.default_rng(3).standard_normal((100_000, 8))
    write_csv(tmp_path / "warm.csv", "c", [table[:10, 0]])  # the lookup tables
    tracemalloc.start()
    try:
        write_csv(tmp_path / "table.csv", ",".join(f"c{j}" for j in range(8)), list(table.T))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("root", [1e-100, 1e-20, 1.0, 1e20, 1e100])
def test_secant_root_is_scale_free(root):
    # an absolute 1e-12 first step put the second point 1e8 roots past a
    # root at 1e-20; the step test now reads 1e-14 relative at every scale
    found, resid = secant_root(lambda z: z * z - root * root, complex(root * (1.0 + 1e-3)))
    assert abs(found - root) <= 1e-14 * root
    assert resid <= 4e-16 * root * root


def test_secant_root_ends_at_a_degenerate_update():
    # f1 == f0 is the rounding floor (or a flat f): the iterate is returned
    # with its residual, for the caller's tolerance to judge
    assert secant_root(lambda z: 2.0 + 0.0j, 3.0 + 0.0j) == (3.0 * (1.0 + 1e-4), 2.0)
