import hashlib
import importlib
import json
import sys

import numpy as np
import pytest

import vacmirror as vm
from vacmirror.cli import main, parse_config
from vacmirror.errors import ConfigError
from vacmirror.numerics import PiecewiseCubic, fft_length

from conftest import make_tabulated_copy


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


LORENTZIAN_CFG = """
# default Lorentzian run
[model]
kind = lorentzian
omega = 1.0

[mechanics]
tau_omega = 1.0e-3
k_over_m = 0.0

[grid]
omega_min = 1.0e-2
omega_max = 1.0e2
points = 60
spacing = log
"""


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, LORENTZIAN_CFG))
    assert cfg["model"]["kind"] == "lorentzian"
    assert cfg["grid"]["points"] == 60
    assert cfg["analysis"]["spectral_points"] == 100  # untouched default


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("[model]\nkind = lorentzian\nbogus = 1\n", "unknown key"),
        ("[mistery]\nkind = lorentzian\n", "unknown section"),
        ("[model]\nkind = sideways\n", "must be one of"),
        ("[model]\nkind = lorentzian\nomega = -2\n", "must be positive"),
        ("[model]\nkind = lorentzian\n[grid]\npoints = few\n", "cannot parse"),
        ("[model]\nkind = lorentzian\nkind = perfect\n", "duplicate"),
        ("kind = lorentzian\n", "outside any"),
        ("[model]\n", "model.kind is required"),
        ("[model]\nkind = tabulated\n", "needs model.table"),
        ("[model]\nkind = tabulated\ntable = nope.txt\n", "not found"),
    ],
)
def test_parse_config_rejections(tmp_path, body, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path, body))
    assert fragment in str(err.value)


def test_config_errors_carry_line_numbers(tmp_path):
    path = write_cfg(tmp_path, "[model]\nkind = lorentzian\nbogus = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert f"{path}:3:" in str(err.value)


def test_analyze_lorentzian(tmp_path):
    cfg = write_cfg(tmp_path, LORENTZIAN_CFG)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("gamma.csv", "chi.csv", "impedance.csv", "summary.json"):
        assert (out / name).exists()
    doc = json.loads((out / "summary.json").read_text())
    assert doc["omega_C"] == pytest.approx(3.0, rel=1e-2)
    assert doc["gamma0"]["re"] == pytest.approx(1.0)
    assert doc["gamma0"]["im"] == pytest.approx(0.0, abs=1e-12)
    assert not doc["cutoff_divergent"]
    assert doc["validation"]["unitarity_defect"] < 1e-12
    lines = (out / "gamma.csv").read_text().splitlines()
    assert lines[0] == "omega,gamma_re,gamma_im,chi_re,chi_im"
    assert len(lines) == 61


def test_analyze_deterministic_bytes(tmp_path):
    cfg = write_cfg(tmp_path, LORENTZIAN_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["analyze", "--config", str(cfg), "--out", str(out1)])
    main(["analyze", "--config", str(cfg), "--out", str(out2)])
    for name in ("gamma.csv", "chi.csv", "impedance.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_analyze_reports_cutoff_health(tmp_path):
    cfg = write_cfg(tmp_path, LORENTZIAN_CFG)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "l")]) == 0
    doc = json.loads((tmp_path / "l" / "summary.json").read_text())
    _, diag = vm.reflection_cutoff(vm.lorentzian_mirror(), full_output=True)
    assert (doc["tail_fraction"], doc["decay_slope"]) == (diag.tail_fraction, diag.decay_slope)
    cfg = write_cfg(tmp_path, LORENTZIAN_CFG.replace("kind = lorentzian", "kind = perfect"))
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    doc = json.loads((tmp_path / "p" / "summary.json").read_text())
    assert doc["tail_fraction"] is None and doc["decay_slope"] is None


def test_analyze_perfect_flags_divergence(tmp_path):
    body = LORENTZIAN_CFG.replace("kind = lorentzian", "kind = perfect")
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["cutoff_divergent"]
    assert doc["omega_C"] is None


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nkind = tabulated\ntable = gone.txt\n")
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_requests_share_one_parser(tmp_path, monkeypatch, capsys):
    # the argparse tree, a root and one subparser per command, is built once per
    # process: a refused argument list and a refused config leave it as it was
    import argparse

    from vacmirror import cli

    cli.make_parser.cache_clear()
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    refused = write_cfg(tmp_path, "[model]\nkind = lorentzian\nbogus = 1\n", "refused.cfg")
    good = write_cfg(tmp_path, LORENTZIAN_CFG)
    with pytest.raises(SystemExit):
        main(["stability"])  # no --config
    assert main(["stability", "--config", str(refused), "--out", str(tmp_path / "a")]) == 2
    assert main(["stability", "--config", str(good), "--out", str(tmp_path / "b")]) == 0
    assert main(["analyze", "--config", str(good), "--out", str(tmp_path / "c")]) == 0
    assert len(built) == 1 + len(cli._COMMANDS) and cli.make_parser() is built[0]
    assert "unknown key" in capsys.readouterr().err


def test_stability_perfect(tmp_path):
    body = LORENTZIAN_CFG.replace("kind = lorentzian", "kind = perfect")
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "stability.json").read_text())
    assert doc["rhp_zero_count"] >= 1
    assert doc["roots"][0]["re"] == pytest.approx(1000.0, rel=1e-6)
    assert not doc["passive"]
    assert doc["omega_C"] is None and doc["mu_over_m"] is None  # no cutoff


def test_stability_lorentzian_passive(tmp_path):
    cfg = write_cfg(tmp_path, LORENTZIAN_CFG)
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "stability.json").read_text())
    assert doc["rhp_zero_count"] == 0
    assert doc["passive"]
    assert doc["mu_over_m"] == pytest.approx(3e-3, rel=1e-2)


def test_stability_tabulated_passive(tmp_path):
    # the benchmark's table to omega = 1100 with a coarser linear head
    table = tmp_path / "table.txt"
    vm.save_table(table, *make_tabulated_copy(omega_max=1100.0, step=1e-2,
                                              log_points=2200).table)
    cfg = write_cfg(tmp_path, f"[model]\nkind = tabulated\ntable = {table}\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "stability.json").read_text())
    assert doc["passive"] is True
    assert doc["rhp_zero_count"] == 0
    assert doc["omega_C"] == pytest.approx(3.0, rel=1e-2)


@pytest.fixture(scope="module")
def table_1100_file(tmp_path_factory):
    table = tmp_path_factory.mktemp("table") / "table.txt"
    vm.save_table(table, *make_tabulated_copy(omega_max=1100.0, step=1e-2,
                                              log_points=2200).table)
    return table


@pytest.mark.parametrize("kind", ["lorentzian", "tabulated"])
@pytest.mark.parametrize("tau,k", [(0.34, 0.0), (0.35, 0.0), (0.4, 0.0), (0.35, 1.0)])
def test_stability_runaway_just_above_the_mass_boundary(tmp_path, table_1100_file, kind, tau, k):
    # 1 < mu/m < 1.2: the runaway zero lies far out (p ~ 177 at tau Omega = 0.35)
    model = f"kind = {kind}\n" + (f"table = {table_1100_file}\n" if kind == "tabulated" else "")
    cfg = write_cfg(tmp_path, f"[model]\n{model}[mechanics]\ntau_omega = {tau}\nk_over_m = {k}\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "stability.json").read_text())
    assert 1.0 < doc["mu_over_m"] < 1.2 + 1e-12  # 3 * 0.4 rounds above 1.2
    assert doc["rhp_zero_count"] == 1
    (root,) = doc["roots"]
    p = abs(complex(root["re"], root["im"]))
    assert abs(root["im"]) <= 1e-12 * p and root["re"] > 10.0
    assert root["residual"] <= 1e-10 * p
    assert doc["passive"] is False


def test_stability_names_the_runaway_root_next_to_the_mass_boundary(tmp_path):
    # mu/m = 1.0071: a secant started an ulp from the root met a degenerate
    # update at the rounding floor, and the report counted the zero and
    # wrote no root
    cfg = write_cfg(tmp_path, "[model]\nkind = lorentzian\nomega = 3.59783369382381\n"
                              "[mechanics]\ntau_omega = 0.09330819119791416\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "stability.json").read_text())
    assert 1.0 < doc["mu_over_m"] < 1.01
    assert doc["rhp_zero_count"] == 1
    (root,) = doc["roots"]
    model = vm.lorentzian_mirror(3.59783369382381)
    mech = vm.MirrorMechanics(k=0.0, tau=0.09330819119791416)

    def z(p):
        return vm.laplace_impedance(model, mech, p).real

    a, b = 1e3, 1e5  # Z > 0 at a, < 0 at b
    assert z(a) > 0 > z(b)
    for _ in range(80):
        a, b = (0.5 * (a + b), b) if z(0.5 * (a + b)) > 0 else (a, 0.5 * (a + b))
    assert root["im"] == 0.0
    assert abs(root["re"] - a) <= 1e-12 * a


def test_stability_fails_loud_when_a_counted_root_is_not_refined(tmp_path, monkeypatch):
    import vacmirror.analysis as analysis

    def refuse(model, mech, seed):
        raise vm.RootConvergenceError(f"no root from {seed}")

    monkeypatch.setattr(analysis, "refine_root", refuse)
    mech = vm.MirrorMechanics(k=0.0, tau=0.69)
    with pytest.raises(vm.RootConvergenceError):
        analysis.stability_report(vm.lorentzian_mirror(), mech)
    cfg = write_cfg(tmp_path, "[model]\nkind = lorentzian\n[mechanics]\ntau_omega = 0.69\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 3
    assert not (out / "stability.json").exists()


@pytest.mark.parametrize("kind", ["lorentzian", "perfect", "transparent"])
def test_stability_decoupled_counts_no_zero(tmp_path, kind):
    model = f"kind = {kind}\n"
    if kind == "transparent":
        table = tmp_path / "clear.txt"
        vm.save_table(table, np.linspace(0.0, 50.0, 60), np.zeros(60), np.ones(60))
        model = f"kind = tabulated\ntable = {table}\n"
    cfg = write_cfg(tmp_path, f"[model]\n{model}[mechanics]\ntau_omega = 0.0\nk_over_m = 1.0\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "stability.json").read_text())
    assert doc["rhp_zero_count"] == 0 and doc["roots"] == []


# the bounds of the rectangle contour and of the log-polar probe scan, both
# replaced by the walk up the imaginary axis
@pytest.mark.parametrize("key", ["contour_delta", "contour_max",
                                 "probe_points", "probe_min", "probe_max"])
def test_removed_analysis_keys_are_unknown(tmp_path, capsys, key):
    cfg = write_cfg(tmp_path, LORENTZIAN_CFG + f"\n[analysis]\n{key} = 50.0\n")
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"unknown key '{key}' in [analysis]" in capsys.readouterr().err
    assert not (tmp_path / "o" / "stability.json").exists()


def test_stability_strong_coupling_unstable(tmp_path):
    body = LORENTZIAN_CFG.replace("tau_omega = 1.0e-3", "tau_omega = 1.0")
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "stability.json").read_text())
    assert doc["rhp_zero_count"] >= 1
    assert not doc["passive"]
    assert doc["mu_over_m"] == pytest.approx(3.0, rel=1e-2)


SIM_PERFECT_CFG = """
[model]
kind = perfect

[mechanics]
tau_omega = 1.0e-3
k_over_m = 0.0

[simulation]
force = none
t_final = 0.3
dt = 2.0e-5
a0 = 1.0
"""


def test_simulate_perfect_runaway(tmp_path):
    cfg = write_cfg(tmp_path, SIM_PERFECT_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "run.json").read_text())
    assert doc["diverged"] is True
    assert doc["fitted_runaway"]["rate"] == pytest.approx(1000.0, rel=1e-2)
    assert "kernel_causality_residual" not in doc and "kernel_n_fft" not in doc
    assert (out / "trajectory.csv").exists()
    assert (out / "energy.csv").exists()


SIM_MEMORY_CFG = """
[model]
kind = lorentzian

[mechanics]
tau_omega = 0.3
k_over_m = 2.25

[simulation]
force = gaussian
amplitude = 1.0e-3
center = 4.0
width = 1.2
t_final = 30.0
dt = 2.0e-3
"""


def test_simulate_memory_pulse(tmp_path):
    cfg = write_cfg(tmp_path, SIM_MEMORY_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "run.json").read_text())
    assert doc["regime"] == "memory"
    assert doc["diverged"] is False
    assert doc["W_a_final"] >= 0
    assert doc["W_m_final"] >= 0
    # the kernel's health numbers
    assert np.isfinite(doc["kernel_causality_residual"])
    assert doc["kernel_causality_residual"] >= 0.0
    assert isinstance(doc["kernel_n_fft"], int) and doc["kernel_n_fft"] > 0
    assert (out / "kernel.csv").exists()
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,q,v,a,F_a,W_a,E,W_m"


@pytest.mark.parametrize("kind", ["lorentzian", "tabulated"])
def test_perfect_regime_refuses_non_perfect_mirror(tmp_path, monkeypatch, capsys, kind):
    model = "[model]\nkind = lorentzian\n"
    if kind == "tabulated":
        table = tmp_path / "table.txt"
        vm.save_table(table, *make_tabulated_copy().table)
        model = f"[model]\nkind = tabulated\ntable = {table}\n"
    body = SIM_MEMORY_CFG.replace("[model]\nkind = lorentzian\n", model) + "regime = perfect\n"
    cfg = write_cfg(tmp_path, body)
    _forbid_gamma_quadrature(monkeypatch)  # refused before any Gamma work
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "simulation.regime" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_kernel_period_is_the_fitted_length_just_past_a_power_of_two(tmp_path):
    # 32,769 steps: a power of two would double the period to 2^17
    body = SIM_MEMORY_CFG.replace("t_final = 30.0\ndt = 2.0e-3", "t_final = 32.769\ndt = 1.0e-3")
    cfg = write_cfg(tmp_path, body)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "run.json").read_text())
    assert doc["kernel_n_fft"] == fft_length(2 * 32769) == 65610


def test_memory_regime_refuses_perfect_mirror(tmp_path, monkeypatch, capsys):
    body = SIM_PERFECT_CFG.replace("a0 = 1.0\n", "regime = memory\n")
    cfg = write_cfg(tmp_path, body)
    _forbid_gamma_quadrature(monkeypatch)  # refused before any Gamma work
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "simulation.regime" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_simulate_memory_refuses_heavy_mass(tmp_path):
    body = SIM_MEMORY_CFG.replace("tau_omega = 0.3", "tau_omega = 0.5")
    cfg = write_cfg(tmp_path, body)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_crosscheck_refuses_heavy_vacuum_mass(tmp_path, capsys):
    body = LORENTZIAN_CFG.replace("tau_omega = 1.0e-3", "tau_omega = 0.5")
    cfg = write_cfg(tmp_path, body)
    assert main(["crosscheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_zero_everything_is_null(tmp_path):
    body = SIM_MEMORY_CFG.replace("force = gaussian", "force = none")
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    q = np.array([float(r.split(",")[1]) for r in rows])
    assert np.all(q == 0.0)


CROSSCHECK_CFG = LORENTZIAN_CFG


def test_crosscheck_lorentzian(tmp_path):
    cfg = write_cfg(tmp_path, CROSSCHECK_CFG)
    out = tmp_path / "out"
    assert main(["crosscheck", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "crosscheck.json").read_text())
    assert doc["kk"]["passed"]
    assert doc["kk"]["defect"] < 1e-3
    assert doc["spectral_rep"]["passed"]
    assert doc["spectral_rep"]["defect"] < 1e-4
    assert doc["consistency"]["passed"]
    assert doc["consistency"]["defect"] < 1e-2


def test_failed_crosscheck_exits_3(tmp_path, capsys):
    body = CROSSCHECK_CFG + "\n[analysis]\nkk_threshold = 1.0e-12\n"
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["crosscheck", "--config", str(cfg), "--out", str(out)]) == 3
    doc = json.loads((out / "crosscheck.json").read_text())
    assert doc["kk"]["passed"] is False and doc["kk"]["defect"] >= 1e-12
    assert doc["spectral_rep"]["passed"] and doc["consistency"]["passed"]
    assert "kk" in capsys.readouterr().err


def test_crosscheck_perfect_reports_divergence(tmp_path):
    body = CROSSCHECK_CFG.replace("kind = lorentzian", "kind = perfect")
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["crosscheck", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "crosscheck.json").read_text())
    assert doc["spectral_rep"]["status"] == "divergent"


def test_crosscheck_corrupted_table_gated(tmp_path):
    m = vm.lorentzian_mirror()
    w = np.linspace(0.0, 150.0, 4000)
    r = vm.reflectivity(m, w) * 1.1  # breaks unitarity
    s = vm.transmissivity(m, w)
    table = tmp_path / "bad_table.txt"
    vm.save_table(table, w, r, s)
    body = f"""
[model]
kind = tabulated
table = {table}

[mechanics]
tau_omega = 1.0e-3
"""
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["crosscheck", "--config", str(cfg), "--out", str(out)]) == 3
    doc = json.loads((out / "crosscheck.json").read_text())
    assert "validation_failure" in doc


def test_timestamps_only_under_flag(tmp_path):
    cfg = write_cfg(tmp_path, LORENTZIAN_CFG)
    out1 = tmp_path / "p"
    main(["analyze", "--config", str(cfg), "--out", str(out1)])
    doc = json.loads((out1 / "summary.json").read_text())
    assert "generated_at" not in doc["meta"]
    out2 = tmp_path / "q"
    main(["analyze", "--config", str(cfg), "--out", str(out2), "--timestamps"])
    doc2 = json.loads((out2 / "summary.json").read_text())
    assert "generated_at" in doc2["meta"]


def _forbid_gamma_quadrature(monkeypatch):
    """Make the Gamma quadrature integrand and the tabulated Gamma rule raise
    wherever they are reached."""
    def forbidden(*args):
        raise AssertionError("Gamma work reached")

    # the package re-exports a function named ``susceptibility``, so the
    # module has to come from the import system, not from an attribute
    monkeypatch.setattr(importlib.import_module("vacmirror.susceptibility"), "alpha", forbidden)
    monkeypatch.setattr(importlib.import_module("vacmirror.scattering").TabulatedMirror,
                        "_gamma", forbidden)


@pytest.mark.parametrize("kind", ["lorentzian", "perfect"])
@pytest.mark.parametrize("command", ["analyze", "stability", "simulate", "crosscheck"])
def test_closed_form_models_never_integrate_gamma(tmp_path, monkeypatch, kind, command):
    _forbid_gamma_quadrature(monkeypatch)
    body = LORENTZIAN_CFG.replace("kind = lorentzian", f"kind = {kind}")
    cfg = write_cfg(tmp_path, body + "\n[simulation]\nt_final = 5.0\ndt = 1.0e-2\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command,body", [
    ("stability", "[mechanics]\ntau_omega = 0.69\n"),
    ("simulate", "[mechanics]\ntau_omega = 0.3\nk_over_m = 2.25\n"
                 "[simulation]\nregime = memory\nt_final = 5.0\ndt = 1.0e-2\n"),
], ids=["stability", "simulate"])
def test_lorentzian_runs_fit_no_cutoff_slope(tmp_path, monkeypatch, command, body):
    # stability and a memory simulate read omega_C alone: the closed form's
    # tail share and top-decade slope are the analyze diagnostics only
    def forbidden(*args):
        raise AssertionError("decay slope fitted")

    original = importlib.import_module("vacmirror.numerics").decay_slope
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "vacmirror" and getattr(module, "decay_slope", None) is original:
            monkeypatch.setattr(module, "decay_slope", forbidden)
    cfg = write_cfg(tmp_path, "[model]\nkind = lorentzian\n" + body)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_table_with_wrong_column_count_is_a_config_error(tmp_path, capsys):
    table = tmp_path / "four.txt"
    table.write_text("0.0 -1.0 0.0 0.0\n1.0 -0.5 -0.5 0.5\n")
    cfg = write_cfg(tmp_path, f"[model]\nkind = tabulated\ntable = {table}\n")
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "expected 5 columns" in capsys.readouterr().err


@pytest.mark.parametrize("line,key", [
    ("v0 = 1.0", "simulation.v0"),
    ("a0 = 5.0", "simulation.a0"),
])
def test_memory_regime_refuses_initial_velocity_and_acceleration(tmp_path, capsys, line, key):
    cfg = write_cfg(tmp_path, SIM_MEMORY_CFG + line + "\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


def test_decoupled_perfect_mirror_refuses_initial_acceleration(tmp_path, capsys):
    body = SIM_PERFECT_CFG.replace("tau_omega = 1.0e-3", "tau_omega = 0.0")
    cfg = write_cfg(tmp_path, body)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "simulation.a0" in capsys.readouterr().err


def test_crosscheck_refuses_table_below_consistency_band(tmp_path, monkeypatch, capsys):
    short = make_tabulated_copy(omega_max=20.0)
    table = tmp_path / "short.txt"
    vm.save_table(table, *short.table)
    cfg = write_cfg(tmp_path, f"[model]\nkind = tabulated\ntable = {table}\n")
    _forbid_gamma_quadrature(monkeypatch)  # refused before any Gamma work
    assert main(["crosscheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "consistency check" in capsys.readouterr().err


# SHA-256 of every CSV the CLI writes for three small runs, recorded with
# the row-by-row %.11e writer (numpy 2.4, x86-64): any change in the bytes
# of a data file, format or numbers, shows here.  A change that moves the
# numbers on purpose records them again and says so: the memory run's were
# recorded again when omega_C became 3 Omega exactly (mu = 0.9, was 0.8975; the
# trajectory moved by at most 7e-12 of each column's largest value).  The
# analyze run's gamma.csv was recorded again when its quad_err column, 0 in
# every row, was dropped: each row kept its first five values' bytes.  The
# memory run's were recorded again when the kernel period became the least
# even 2^a 3^b 5^c >= 2 steps (kernel_n_fft 32768 -> 30000): q, v, W_a, E and
# W_m moved by at most 7.4e-12 of each column's largest value, a by 1.7e-8,
# energy.csv's residual by 1.1e-8, kappa in kernel.csv by 1.7e-5 of its peak,
# and kernel_causality_residual went 9.136e-4 -> 9.130e-4.
_GOLDEN = {
    ("analyze", LORENTZIAN_CFG): {
        "chi.csv": "b4e81be1f39b808bb3e090022fb6f18f9595699ad139b179f839dcbb73aba6bc",
        "gamma.csv": "29d448f16084a580f612ce72b0e9f6ed9ec9a80fe91a442f34ce8dc0752bf35d",
        "impedance.csv": "813ace745b1b0a71d1fb0cdb45a256d9710a7e4c6c6ceb4e8f908232ef4b02ca",
    },
    ("simulate", SIM_MEMORY_CFG): {
        "energy.csv": "8185fa202f7851559e7f28e88266312e54a57a98c039403d17b74d134538247e",
        "kernel.csv": "bcd15d105787667d68b7b0de97cf1537e085c0815b412ce3eb7d04f4d7b386e5",
        "trajectory.csv": "71da3e75f566d7487d551c1e2da9fd137965a9c1b36451a2112d4214fd206c95",
    },
    ("simulate", SIM_PERFECT_CFG): {  # a runaway: energies past 1e+100
        "energy.csv": "54a419b41854edfd96e4f4ca002f673e0b422a32ad7e4ba50a5f6a4e826b0c39",
        "trajectory.csv": "9c5fe18d61a8252833c04b4eb1b541e0f1d52ad945d3c3c26a7d5784c86ba78c",
    },
}


@pytest.mark.parametrize("command,body", list(_GOLDEN), ids=["analyze", "memory", "perfect"])
def test_data_files_keep_their_bytes(tmp_path, command, body):
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert digests == _GOLDEN[(command, body)]


# SHA-256 of the JSON documents of a Lorentzian analyze and crosscheck,
# recorded when every Kramers-Kronig probe and spectral point still built its
# own spline: sharing one spline per curve left the bytes as they were.
# Recorded again for omega_C = 3 (was 2.99180), mu/m = 3e-3, tail_fraction
# 8.796e-3 (was 6.081e-3), now the exact share above 1e3 from the closed
# form's primitive, a Kramers-Kronig causality defect of r that moved by
# 1.2e-7 relative (the log tail of Re r), a Kramers-Kronig defect of Gamma
# of 4.7006e-6 (was 4.7027e-6) and a spectral defect of 2.8e-10 (was
# 2.2e-8); decay_slope kept its bytes.  Recorded again when the
# Kramers-Kronig transform became the Cauchy continuation's boundary value,
# exact on the spline's cubic pieces: the causality defect of r 1.0542e-5
# (was 1.9897e-3, the trapezoid rule's) and the Kramers-Kronig defect of Gamma
# 7.2580e-6 (was 4.7005e-6; both rules sit at the interpolation limit of the
# curve's 0.1 step); nothing else moved.  The crosscheck document was
# recorded again when the Kramers-Kronig check read the model's 351-point
# Gamma curve (was a private 4001-point curve on [0, 400] with a 0.1 step):
# the Kramers-Kronig defect of Gamma 1.8614e-8 (was 7.2580e-6); nothing else
# moved.
_GOLDEN_JSON = {
    ("analyze", "summary.json"):
        "edea33e7526e8e2ffd2e12a7d0c8b5d093ab192a5f46d1c3b8ecbd72f174738a",
    ("crosscheck", "crosscheck.json"):
        "dcbe132a054a1b92c6a7acaace44221116e7474f854c0eca2b9932537a720e06",
}


@pytest.mark.parametrize("command,name", list(_GOLDEN_JSON), ids=["analyze", "crosscheck"])
def test_json_documents_keep_their_bytes(tmp_path, command, name):
    cfg = write_cfg(tmp_path, LORENTZIAN_CFG)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == _GOLDEN_JSON[(command, name)]


# SHA-256 of the JSON documents of four runs on the 1100-top table, recorded
# again when the table's omega_C and continuation became exact on its Gamma
# curve's cubic pieces, closed by an (a + b ln w)/w^2 + c/w^3 tail: omega_C
# 2.9999997 (was 2.9918033), tail_fraction 8.796e-3 (was 6.081e-3),
# decay_slope -1.78887 (was -1.78869, now read from the curve's top
# decade).  At tau Omega = 0.4 the seed scan, the bisection and the secant
# find the root p = 30.893866 (was 30.890191; the Lorentzian's is
# 30.893854) through the Cauchy continuation; at 0.35 the root p = 176.8242
# (was 176.8424; 176.8239) comes from the scan over the rest of the walk's
# span.  The analyze-tail causality defect of r moved by 8e-13 relative.  The analyze grids hold 12
# and 3 samples in their top decade: the second closes the Kramers-Kronig
# check of r with no tail, and writes its transparency slope and cutoff
# verdict as null, unknown from 3 samples (re-recorded for that alone).
# The two analyze documents were recorded again when the Kramers-Kronig
# transform became the continuation's boundary value on the cubic pieces:
# causality defect 1.5861e-5 (was 3.1685e-3) with the tail and 7.1383e-2
# (was 1.1598e-1) without, whose last digits r and s by Horner on the
# table's cubics moved by 4.4e-16 relative; the stability documents kept
# their bytes.  The tau Omega = 0.4 document was recorded again when the
# real-axis brackets were narrowed in array rounds instead of bisected: the
# secant ends on the root 30.89386584291163 (was 30.89386584291161, 6e-16
# relative) with residual 3.6e-15 (was 7.1e-15); at 0.35 the root
# 176.82422858180337 kept its bytes.  All four were recorded again when the
# table's r and s became the not-a-knot splines of its samples (were the
# monotone PCHIP cubics): the unitarity defect 4.99e-9 (was 1.14e-5) with
# the tail and 8.87e-10 (was 2.57e-6) without, omega_C 2.99999971992 (was
# 2.99999972109, 3.9e-10 relative), tail_fraction and decay_slope 5e-11 and
# 7e-11 relative, the causality defect of r 1.58567e-5 (was 1.58608e-5) and
# 7.13817e-2 (was 7.13826e-2), the transparency tail and slope 7e-10 and
# 1.5e-11 relative; the roots 30.893865904 (was 30.893865843) at 0.4 and
# 176.82423031 (was 176.82422858) at 0.35, 2e-9 and 1e-8 relative.  The
# two stability documents were recorded again when the secant started from
# the chord zero of each scan bracket (was the bracket narrowed to an ulp in
# 14 array rounds): the root 30.893865903963263 (was 30.893865903963285,
# 7e-16 relative) with residual 0 (was 3.6e-15) at 0.4, and
# 176.82423030908788 (was 176.82423030908797, 5e-16 relative) with residual
# 2.8e-14 (was 0) at 0.35.
_GOLDEN_TABLE = {
    "stability-0.4": ("stability", "[mechanics]\ntau_omega = 0.4\n",
                      "b82a78ea688dedad3a3e218305dcf9b8f7a86e987c66e3299b9468176a123371"),
    "stability-0.35": ("stability", "[mechanics]\ntau_omega = 0.35\n",
                       "777a141fb0f721d43c856be94e1f06db02a9b7c62f7528a6aebfdb97ca271881"),
    "analyze-tail": ("analyze", "[grid]\nomega_min = 1.0e-2\nomega_max = 1.0e3\npoints = 60\n",
                     "f74de98452ca4e036a127a1ab200fc37df381ef7d845cf77891ae942731a8f77"),
    "analyze-no-tail": ("analyze",
                        "[grid]\nomega_min = 1.0e-2\nomega_max = 1.0e2\npoints = 10\n",
                        "176f8498d30eb73d02ea6eb52bc44048f52faf3e41700ee52979c498315a8e06"),
}


@pytest.mark.parametrize("run", list(_GOLDEN_TABLE))
def test_table_documents_keep_their_bytes(tmp_path, table_1100_file, run):
    command, extra, digest = _GOLDEN_TABLE[run]
    cfg = write_cfg(tmp_path, f"[model]\nkind = tabulated\ntable = {table_1100_file}\n" + extra)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    name = "stability.json" if command == "stability" else "summary.json"
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command,most", [("analyze", 1), ("crosscheck", 3)])
def test_lorentzian_commands_build_few_splines(tmp_path, monkeypatch, command, most):
    # analyze: the causality probes of validate_model share one spline;
    # crosscheck: that one, the real part of the Gamma curve for the 40 KK
    # probes and the 100 spectral points, and the real part of the
    # consistency check's curve
    builds = []
    original = PiecewiseCubic.not_a_knot.__func__

    def counted(cls, *args):
        builds.append(1)
        return original(cls, *args)

    monkeypatch.setattr(PiecewiseCubic, "not_a_knot", classmethod(counted))
    cfg = write_cfg(tmp_path, LORENTZIAN_CFG)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert 0 < len(builds) <= most


@pytest.mark.parametrize("command,kind,most", [("stability", "tabulated", 1),
                                               ("crosscheck", "lorentzian", 2)])
def test_each_curve_fits_its_tail_once(tmp_path, monkeypatch, table_1100_file,
                                       command, kind, most):
    # stability at tau Omega = 0.4 on the table: its Gamma curve, read by
    # reflection_cutoff, the walk, the real-axis scan and the secant;
    # crosscheck: the validation curve of r, and the Gamma curve of the
    # Kramers-Kronig probes and the spectral points
    original = sys.modules["vacmirror.numerics"].fit_log_tail
    fits = []

    def counted(*args, **kwargs):
        fits.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "vacmirror" and \
                getattr(module, "fit_log_tail", None) is original:
            monkeypatch.setattr(module, "fit_log_tail", counted)
    model = "kind = lorentzian\n" if kind == "lorentzian" else \
        f"kind = tabulated\ntable = {table_1100_file}\n"
    cfg = write_cfg(tmp_path, f"[model]\n{model}[mechanics]\n"
                              f"tau_omega = {0.4 if command == 'stability' else 1e-3}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert 0 < len(fits) <= most


@pytest.mark.parametrize("tau", [0.0, 0.01])
def test_transparent_table_has_zero_cutoff(tmp_path, tau):
    # r = 0, s = 1: Gamma == 0, so omega_C = mu = 0 and there is no tail
    table = tmp_path / "clear.txt"
    vm.save_table(table, np.linspace(0.0, 50.0, 60), np.zeros(60), np.ones(60))
    cfg = write_cfg(tmp_path, f"[model]\nkind = tabulated\ntable = {table}\n"
                              f"[mechanics]\ntau_omega = {tau}\nk_over_m = 1.0\n"
                              "[grid]\nomega_max = 40.0\n")
    for command, name in (("analyze", "summary.json"), ("stability", "stability.json")):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / name).read_text())
        assert doc["omega_C"] == 0.0 and doc["mu_over_m"] == 0.0
    assert doc["rhp_zero_count"] == 0 and doc["passive"]
    summary = json.loads((tmp_path / "analyze" / "summary.json").read_text())
    assert summary["cutoff_divergent"] is False
    assert summary["tail_fraction"] == 0.0
    # |r| vanishes on the top decade: a cutoff, with a slope of -inf, written as null
    assert summary["validation"]["has_cutoff"] is True
    assert summary["validation"]["transparency_slope"] is None


_FINITE_RUN = {
    "model": {"kind": "lorentzian", "omega": "1.0"},
    "mechanics": {"tau_omega": "0.1", "k_over_m": "1.0"},
    "simulation": {"force": "gaussian", "amplitude": "1.0e-3", "t_final": "2.0", "dt": "1.0e-2"},
}


@pytest.mark.parametrize("section,key,value", [
    ("mechanics", "tau_omega", "nan"),
    ("mechanics", "k_over_m", "inf"),
    ("model", "omega", "nan"),
    ("simulation", "t_final", "inf"),
    ("simulation", "amplitude", "-inf"),
])
def test_non_finite_values_are_refused(tmp_path, capsys, section, key, value):
    # float() takes them; unrefused, they escape as a bare ValueError or
    # OverflowError or run on into NaN output and invalid JSON
    run = {s: dict(keys) for s, keys in _FINITE_RUN.items()}
    run[section][key] = value
    lines = [line for s, keys in run.items()
             for line in [f"[{s}]"] + [f"{k} = {v}" for k, v in keys.items()]]
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    lineno = lines.index(f"{key} = {value}") + 1
    assert f"{cfg}:{lineno}: {section}.{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("column,value", [
    (0, "nan"), (0, "inf"), (1, "nan"), (2, "inf"), (3, "-inf"), (4, "nan"),
])
def test_non_finite_table_entries_are_refused(tmp_path, capsys, column, value):
    # one entry of w, Re r, Im r, Re s or Im s; unrefused, a nan in r or s
    # escaped analyze and stability as a bare ValueError and made crosscheck a
    # failed validation, and a nan node passed the grid's ordering check
    w = np.linspace(0.0, 40.0, 81)
    model = vm.lorentzian_mirror()
    table = tmp_path / "table.txt"
    vm.save_table(table, w, vm.reflectivity(model, w), vm.transmissivity(model, w))
    rows = table.read_text().splitlines()
    fields = rows[40].split()
    fields[column] = value
    rows[40] = " ".join(fields)
    table.write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, f"[model]\nkind = tabulated\ntable = {table}\n")
    for command in ("analyze", "stability", "crosscheck"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 2
        assert "model.table: table entries must be finite" in capsys.readouterr().err
