"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They run in a few seconds and do not time anything.
"""

import inspect
import json
import sys

import numpy as np
import pytest

import oracles
import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.SRC))
import vacmirror  # noqa: E402
import vacmirror.cli  # noqa: E402

COUNT_STATS = (".calls", ".points", ".nodes", ".steps", ".bytes", ".n_fft",
               ".f_evals", "integrand_calls")


def _bindings():
    """Identity of every attribute, class attribute and dict entry in vacmirror.*."""
    snap = {}
    for ns in tracing._namespaces(vacmirror):
        for name, value in vars(ns).items():
            snap[(ns.__name__, name)] = id(value)
            if isinstance(value, dict):
                for key, entry in value.items():
                    snap[(ns.__name__, name, key)] = id(entry)
            if inspect.isclass(value):
                for meth, fn in vars(value).items():
                    snap[(ns.__name__, name, "." + meth)] = id(fn)
    return snap


def test_tracer_restores_every_binding():
    before = _bindings()
    tr = tracing.Tracer()
    tr.install(vacmirror)
    try:
        # the copies left by ``from .susceptibility import gamma`` are traced too
        for name in ("vacmirror", "vacmirror.susceptibility", "vacmirror.cli",
                     "vacmirror.dispersion", "vacmirror.analysis"):
            assert getattr(sys.modules[name].gamma, "__traced__", False)
        assert getattr(vacmirror.cli._COMMANDS["analyze"], "__traced__", False)
        assert getattr(vacmirror.dispersion.TimeKernel.to_csv, "__traced__", False)
        vacmirror.gamma(vacmirror.lorentzian_mirror(), 1.0)
    finally:
        tr.restore()
    assert tracing.traced_bindings(vacmirror) == []
    assert _bindings() == before
    stats = tr.summary()
    assert stats["susceptibility.gamma.calls"] == 1
    assert stats["numerics.adaptive_gauss_legendre.calls"] == 1
    assert stats["scattering.reflectivity.calls"] > 0


@pytest.fixture(scope="module")
def stability_output(tmp_path_factory):
    ops, _ = workloads.make_queue("coupling-sweep", 0, 1)
    op = next(o for o in ops if o.params["k"] == 0.0 and o.params["tau"] < 0.2)
    work = tmp_path_factory.mktemp("stability")
    (cfg,) = workloads.write_inputs([op], work)
    assert vacmirror.cli.main(op.argv(cfg, work / "out")) == 0
    return op, work / "out"


def test_checker_passes_real_output(stability_output):
    op, out = stability_output
    checks = oracles.check_op(op, out, 0)
    assert [c.oracle for c in checks] == ["omega_c", "passivity", "rhp_count"]
    assert not any(c.missed for c in checks)


def test_checker_flags_omega_c_off_by_two_percent(stability_output, tmp_path):
    op, out = stability_output
    doc = json.loads((out / "stability.json").read_text())
    doc["omega_C"] = 3.0 * op.params["omega"] * 1.02
    (tmp_path / "stability.json").write_text(json.dumps(doc))
    (miss,) = [c for c in oracles.check_op(op, tmp_path, 0) if c.missed]
    assert miss.oracle == "omega_c"
    assert miss.value == pytest.approx(0.02)
    assert not miss.known_defect


def test_checker_flags_exit_code(stability_output):
    op, out = stability_output
    (check,) = oracles.check_op(op, out, 3)
    assert check.missed and check.oracle == "exit_code"


@pytest.mark.parametrize("residual, excused", [(1e-5, True), (1e-4, False)])
def test_known_defect_excuse_is_bounded(tmp_path, residual, excused):
    op = workloads._simulate_op(0, "memory", 0.3, 4.0, "step", 20.0, 1.0)
    rows = [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0, 0.0, 2.0 * residual]]
    header = "t,W_a,E,delta_E,W_m,residual"
    np.savetxt(tmp_path / "energy.csv", rows, delimiter=",", header=header, comments="")
    (check,) = oracles.check_op(op, tmp_path, 0)
    assert check.oracle == "energy_ledger" and check.missed
    assert check.known_defect == excused


def test_closed_form_matches_program():
    ws = [0.0, 0.01, 0.2, 1.0, 7.5, 100.0]
    ours = oracles.lorentzian_gamma(ws, 1.7)
    theirs = vacmirror.lorentzian_gamma(ws, 1.7)
    assert max(abs(ours - theirs)) < 1e-14


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queue(workload):
    a, warm_a = workloads.make_queue(workload, 7, 25)
    b, warm_b = workloads.make_queue(workload, 7, 25)
    c, _ = workloads.make_queue(workload, 8, 25)
    assert [vars(o) for o in a] == [vars(o) for o in b]
    assert vars(warm_a) == vars(warm_b)
    assert [o.config for o in a] != [o.config for o in c]
    assert len(a) >= workloads.MIN_OPS


@pytest.mark.parametrize("seed", range(40))
def test_queues_stay_below_mu_equal_m(seed):
    """crosscheck and memory-regime simulate refuse mu >= m; mu/m = 3 Omega tau."""
    for workload in ("spectral", "timedomain"):
        ops, _ = workloads.make_queue(workload, seed, 20)
        for op in ops:
            if op.command == "crosscheck" or op.params.get("regime") == "memory":
                tau = float(op.config.split("tau_omega = ")[1].split()[0])
                assert 3.0 * op.params["omega"] * tau < 1.0


def _traced_counts(work_dir):
    setup = run.Setup("coupling-sweep", 3, 1, work_dir)
    setup.ops, setup.cfgs = setup.ops[:2], setup.cfgs[:2]
    tr = tracing.Tracer()
    tr.install(setup.package)
    try:
        run.run_queue(setup, tr)
    finally:
        tr.restore()
    return {k: v for k, v in tr.summary().items() if k.endswith(COUNT_STATS)}


def test_same_seed_same_layer_counts(tmp_path):
    first = _traced_counts(tmp_path / "a")
    second = _traced_counts(tmp_path / "b")
    assert first == second
    assert first["susceptibility.reflection_cutoff.calls"] == 2


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.LAYER_MODULES == tracing.MODULES
