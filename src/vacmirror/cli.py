"""Command-line front end.

Four commands drive the pipeline on a strict key-value config file:

    vacmirror analyze    --config run.cfg --out outdir
    vacmirror stability  --config run.cfg --out outdir
    vacmirror simulate   --config run.cfg --out outdir
    vacmirror crosscheck --config run.cfg --out outdir

Exit codes: 0 success (including scientifically expected divergence),
2 config error, 3 numerical failure.  Outputs are deterministic: no
timestamps inside data files (metadata carries one only under
--timestamps).

Config format: INI-like sections of ``key = value`` lines, ``#``
comments.  Unknown sections or keys are errors; silent defaults for
physics parameters are how reproductions go wrong.
"""

import argparse
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from . import analysis, dispersion, dynamics, scattering
from .susceptibility import (
    MirrorMechanics,
    compute_susceptibility,
    gamma,
    gamma_samples,
    induced_mass,
    reflection_cutoff,
)
from .errors import ConfigError, CutoffDivergenceError, FitError, VacMirrorError
from .numerics import json_num, write_csv_files, write_json

# [model] kind -> the mirror model built from that section
_MODELS = {
    "perfect": lambda m: scattering.perfect_mirror(),
    "lorentzian": lambda m: scattering.lorentzian_mirror(m["omega"]),
    "tabulated": lambda m: scattering.load_table(m["table"]),
}

_CHOICES = {
    ("model", "kind"): set(_MODELS),
    ("grid", "spacing"): {"log", "linear"},
    ("simulation", "force"): {"none", "gaussian", "step", "sine"},
    ("simulation", "regime"): {"auto", "perfect", "memory"},
}

# (type, default, positive-required); default None means "required"
_SCHEMA = {
    "model": {
        "kind": (str, None, False),
        "omega": (float, 1.0, True),
        "table": (str, "", False),
    },
    "mechanics": {
        "tau_omega": (float, 1e-3, False),
        "k_over_m": (float, 0.0, False),
    },
    "grid": {
        "omega_min": (float, 1e-2, True),
        "omega_max": (float, 1e3, True),
        "points": (int, 400, True),
        "spacing": (str, "log", False),
    },
    "analysis": {
        "spectral_points": (int, 100, True),
        "kk_threshold": (float, 1e-3, True),
        "spectral_threshold": (float, 1e-4, True),
        "consistency_threshold": (float, 1e-2, True),
    },
    "simulation": {
        "force": (str, "gaussian", False),
        "amplitude": (float, 1e-3, False),
        "center": (float, 5.0, False),
        "width": (float, 1.5, True),
        "frequency": (float, 1.0, True),
        "t_final": (float, 60.0, True),
        "dt": (float, 1e-3, True),
        "regime": (str, "auto", False),
        "q0": (float, 0.0, False),
        "v0": (float, 0.0, False),
        "a0": (float, 0.0, False),
    },
    "output": {
        "directory": (str, "out", False),
    },
}


@dataclass
class RunConfig:
    values: dict
    path: str

    def __getitem__(self, section):
        return self.values[section]


def parse_config(path):
    """Parse and validate a config file; raises ConfigError with line anchors."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("config file not found", path=str(path))
    values = {s: {k: v[1] for k, v in keys.items()} for s, keys in _SCHEMA.items()}
    seen = {}
    section = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", str(path), lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", str(path), lineno)
        if section is None:
            raise ConfigError("key outside any [section]", str(path), lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key '{key}' in [{section}]", str(path), lineno)
        if (section, key) in seen:
            raise ConfigError(f"duplicate key '{key}'", str(path), lineno)
        seen[(section, key)] = lineno
        typ, _, positive = _SCHEMA[section][key]
        try:
            parsed = typ(val)
        except ValueError:
            raise ConfigError(
                f"cannot parse '{val}' as {typ.__name__} for {section}.{key}",
                str(path), lineno,
            ) from None
        # float() takes nan and +-inf, which the sign checks below let through
        if typ is float and not np.isfinite(parsed):
            raise ConfigError(f"{section}.{key} must be finite", str(path), lineno)
        if positive and isinstance(parsed, (int, float)) and parsed <= 0:
            raise ConfigError(f"{section}.{key} must be positive", str(path), lineno)
        choices = _CHOICES.get((section, key))
        if choices and parsed not in choices:
            raise ConfigError(
                f"{section}.{key} must be one of {sorted(choices)}", str(path), lineno
            )
        values[section][key] = parsed

    if values["model"]["kind"] is None:
        raise ConfigError("model.kind is required", str(path))
    if values["mechanics"]["tau_omega"] < 0 or values["mechanics"]["k_over_m"] < 0:
        raise ConfigError("mechanics parameters must be nonnegative", str(path))
    if values["model"]["kind"] == "tabulated":
        table = values["model"]["table"]
        if not table:
            raise ConfigError("tabulated model needs model.table", str(path))
        tpath = Path(table)
        if not tpath.is_absolute():
            tpath = path.parent / tpath
        if not tpath.exists():
            raise ConfigError(f"table file not found: {tpath}", str(path))
        values["model"]["table"] = str(tpath)
    if values["grid"]["omega_min"] >= values["grid"]["omega_max"]:
        raise ConfigError("grid.omega_min must be below grid.omega_max", str(path))
    return RunConfig(values=values, path=str(path))


def build_model(cfg):
    m = cfg["model"]
    try:
        return _MODELS[m["kind"]](m)
    except ValueError as exc:  # a table's column count, unparsable rows, grid checks
        raise ConfigError(f"model.table: {exc}", cfg.path) from None


def build_mechanics(cfg):
    mech = cfg["mechanics"]
    return MirrorMechanics(m=1.0, k=mech["k_over_m"], tau=mech["tau_omega"])


def build_grid(cfg):
    g = cfg["grid"]
    if g["spacing"] == "log":
        return np.geomspace(g["omega_min"], g["omega_max"], g["points"])
    return np.linspace(g["omega_min"], g["omega_max"], g["points"])


def _passive_induced_mass(cfg, model, mech, consumer):
    """Induced mass mu; ConfigError when mu >= m, the non-passive regime."""
    mu = induced_mass(mech, reflection_cutoff(model))
    if mu >= mech.m:
        raise ConfigError(
            f"mu/m = {mu / mech.m:.3f} >= 1: {consumer} refuses the "
            "non-passive regime", cfg.path,
        )
    return mu


def _meta(args):
    meta = {}
    if args.timestamps:
        import datetime

        meta["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def cmd_analyze(cfg, out, args):
    model = build_model(cfg)
    mech = build_mechanics(cfg)
    grid = build_grid(cfg)
    validation = scattering.validate_model(model, grid)
    result = compute_susceptibility(model, mech, grid)
    g, chi = result.gamma.values, result.chi.values
    z = analysis._impedance(mech, grid, chi)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = 1.0 / z
    # one writer pass: omega is formatted once for the three files, chi once for two
    chi_re, chi_im = chi.real, chi.imag
    write_csv_files([
        (out / "gamma.csv", "omega,gamma_re,gamma_im,chi_re,chi_im",
         [grid, g.real, g.imag, chi_re, chi_im]),
        (out / "chi.csv", "omega,chi_re,chi_im", [grid, chi_re, chi_im]),
        (out / "impedance.csv", "omega,z_re,z_im,y_re,y_im",
         [grid, z.real, z.imag, y.real, y.imag]),
    ])
    gamma0 = gamma(model, 0.0)
    diag = result.cutoff_diagnostics
    doc = {
        "model": model.kind,
        "tau_omega": mech.tau,
        "k_over_m": mech.k / mech.m,
        "omega_C": json_num(result.omega_c),
        "mu_over_m": json_num(result.mu / mech.m),
        "gamma0": {"re": gamma0.real, "im": gamma0.imag},
        "cutoff_divergent": bool(result.cutoff_divergent),
        "tail_fraction": None if diag is None else json_num(diag.tail_fraction),
        "decay_slope": None if diag is None else json_num(diag.decay_slope),
        "validation": {
            "unitarity_defect": validation.unitarity_defect,
            "transparency_tail": validation.transparency_tail,
            "transparency_slope": json_num(validation.transparency_slope),
            "causality_defect": json_num(validation.causality_defect),
            "has_cutoff": validation.has_cutoff,
        },
        "grid": dict(cfg["grid"]),
        "meta": _meta(args),
    }
    write_json(out / "summary.json", doc)
    return 0


def cmd_stability(cfg, out, args):
    model = build_model(cfg)
    mech = build_mechanics(cfg)
    report = analysis.stability_report(model, mech)
    report.to_json(out / "stability.json")
    return 0


def cmd_simulate(cfg, out, args):
    model = build_model(cfg)
    mech = build_mechanics(cfg)
    sim = cfg["simulation"]
    force = dynamics.ForceProfile(
        kind=sim["force"], amplitude=sim["amplitude"], center=sim["center"],
        width=sim["width"], frequency=sim["frequency"],
    )
    regime = sim["regime"]
    if regime == "auto":
        regime = "perfect" if model.gamma_is_one else "memory"
    if (regime == "perfect") != model.gamma_is_one:
        raise ConfigError(f"simulation.regime = {regime} does not fit this mirror: the perfect "
                          "regime needs Gamma = 1, the memory regime a reflection cutoff", cfg.path)
    # the memory integrator releases the mirror from rest; at tau = 0 the
    # force balance fixes the acceleration
    fixed = ("v0", "a0") if regime == "memory" else ("a0",) if mech.tau == 0 else ()
    for key in fixed:
        if sim[key] != 0.0:
            where = f"{regime} regime" + (" at tau_omega = 0" if regime == "perfect" else "")
            raise ConfigError(f"simulation.{key} = {sim[key]:g} would be ignored in the {where}",
                              cfg.path)

    fitted = None
    if regime == "perfect":
        dt = sim["dt"] if mech.tau == 0 else min(sim["dt"], mech.tau / 50.0)
        traj = dynamics.simulate_perfect_mirror(mech, force, sim["t_final"], dt=dt,
                                                q0=sim["q0"], v0=sim["v0"], a0=sim["a0"])
        try:
            fit = dynamics.fit_runaway_rate(traj)
            fitted = {"rate": fit.rate, "ci95": fit.ci95, "efolds": fit.efolds}
        except FitError:
            fitted = None
    else:
        dt, steps = sim["dt"], int(round(sim["t_final"] / sim["dt"]))
        if steps < 2:
            raise ConfigError(f"simulation.t_final = {sim['t_final']:g} at simulation.dt = "
                              f"{dt:g}: a memory run needs two steps", cfg.path)
        mu = _passive_induced_mass(cfg, model, mech, "memory integrator")
        kernel = dispersion.model_time_kernel(model, mech, mu, sim["t_final"], dt)
        traj = dynamics.simulate_with_memory(mech, kernel, force, sim["t_final"], q0=sim["q0"])

    ledger = dynamics.energy_ledger(traj, mech)
    dynamics.export_simulation_csv(out, traj, ledger)
    doc = {
        "model": model.kind,
        "regime": regime,
        "method": traj.method,
        "dt": traj.dt,
        "t_final": sim["t_final"],
        "force": {k: sim[k] for k in ("force", "amplitude", "center", "width", "frequency")},
        "diverged": bool(traj.diverged),
        "t_diverged": json_num(traj.t_diverged),
        "fitted_runaway": fitted,
        "W_a_final": ledger.w_applied[-1],
        "W_m_final": ledger.w_radiated[-1],
        "delta_E_final": ledger.delta_energy[-1],
        "max_ledger_residual": ledger.max_residual,
        "meta": _meta(args),
    }
    if regime == "memory":
        doc["kernel_n_fft"] = kernel.n_fft  # the weights' period
    write_json(out / "run.json", doc)
    return 0


_CROSSCHECKS = ("kk", "spectral_rep", "consistency")


def cmd_crosscheck(cfg, out, args):
    model = build_model(cfg)
    mech = build_mechanics(cfg)
    a = cfg["analysis"]
    doc = {"model": model.kind, "tau_omega": mech.tau, "meta": _meta(args)}

    lo, hi = model.omega_range  # every band below is a constant times the model's scale
    scale, band = model.omega_scale, dispersion.consistency_band(model)
    # before the validation, whose grid [1e-2 scale, hi] would run backwards
    if hi < band:
        raise ConfigError(f"the model ends at omega = {hi:g}, below the consistency "
                          f"check's band {band:.4g}", cfg.path)
    validation = scattering.validate_model(
        model, np.geomspace(max(1e-2 * scale, lo + 1e-12), min(1e2 * scale, hi), 800))
    if validation.unitarity_defect > 1e-6:
        doc["validation_failure"] = {"unitarity_defect": validation.unitarity_defect}
        write_json(out / "crosscheck.json", doc)
        print("validation failed before crosscheck", file=sys.stderr)
        return 3

    if model.gamma_is_one:
        for name in _CROSSCHECKS:
            doc[name] = {"status": "divergent", "defect": None}
        write_json(out / "crosscheck.json", doc)
        return 0

    try:
        mu = _passive_induced_mass(cfg, model, mech, "spectral representation")
    except CutoffDivergenceError:
        mu = None

    # Kramers-Kronig: Gamma_I reconstructed from the Gamma_R of the model's
    # Gamma curve vs Gamma_I itself
    probes = scale * np.linspace(0.1, 5.0, 40)
    rec = dispersion.kk_reconstruct(model.gamma_curve, probes)
    kk_defect = float(np.max(np.abs(rec.imag - gamma_samples(model, probes).imag)))
    doc["kk"] = {"defect": kk_defect, "threshold": a["kk_threshold"],
                 "passed": bool(kk_defect < a["kk_threshold"])}

    # spectral representation vs direct Laplace impedance
    doc["spectral_rep"] = {"status": "divergent", "defect": None}
    if mu is not None:
        ps = scale * np.geomspace(1e-2, 1e2, a["spectral_points"])
        direct = analysis.laplace_impedance(model, mech, ps)
        try:
            spectral = analysis.spectral_impedance(model, mech, ps, mu=mu)
        except CutoffDivergenceError:
            # the Gamma curve shows no integrable decay although the cutoff, and
            # so mu, is finite: a check that cannot run has not passed
            doc["spectral_rep"].update(threshold=a["spectral_threshold"], passed=False)
        else:
            rel = float(np.max(np.abs(spectral - direct) / np.abs(direct)))
            doc["spectral_rep"] = {"defect": rel, "threshold": a["spectral_threshold"],
                                   "passed": bool(rel < a["spectral_threshold"])}

    report = dispersion.consistency_check(model, mech)
    doc["consistency"] = {"defect": report.defect,
                          "threshold": a["consistency_threshold"],
                          "passed": bool(report.defect < a["consistency_threshold"])}
    write_json(out / "crosscheck.json", doc)
    failed = [f"{name} {'divergent' if 'status' in doc[name] else 'at or above threshold'}"
              for name in _CROSSCHECKS if doc[name].get("passed") is False]
    if failed:
        print(f"crosscheck failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "stability": cmd_stability,
    "simulate": cmd_simulate,
    "crosscheck": cmd_crosscheck,
}


@cache
def make_parser():
    parser = argparse.ArgumentParser(
        prog="vacmirror",
        description="Vacuum radiation-pressure response and stability of a scattering mirror",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to run config")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--timestamps", action="store_true",
                       help="include a timestamp in metadata sidecars")
    return parser


def run(argv=None):
    args = make_parser().parse_args(argv)
    cfg = parse_config(args.config)
    out = Path(args.out) if args.out else Path(cfg["output"]["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[args.command](cfg, out, args)


def main(argv=None):
    try:
        code = run(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except VacMirrorError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 3
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
