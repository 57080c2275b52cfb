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

import vacmirror
from vacmirror.numerics import _CSV_BLOCK, running_integral, write_csv

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


def _loaded_after(code, tmp_path):
    src = str(Path(vacmirror.__file__).resolve().parents[1])
    probe = f"import sys\n{code}\nprint(sorted(m for m in {_HEAVY!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    assert _loaded_after("import vacmirror", tmp_path) == "[]"


def test_perfect_simulate_leaves_heavy_scipy_unloaded(tmp_path):
    (tmp_path / "run.cfg").write_text(_PERFECT_RUN)
    run = ("from vacmirror.cli import main\n"
           "assert main(['simulate', '--config', 'run.cfg', '--out', 'out']) == 0")
    assert _loaded_after(run, tmp_path) == "[]"
