"""Oracle checks on each op's output files, run outside the op timers.

Tolerances are those of ``tests/test_acceptance.py``:

- omega_C within 1 % of 3 Omega (criterion 3);
- gamma.csv within 1e-6 relative of the closed-form Lorentzian Gamma
  (criterion 1);
- passive == (mu/m < 1), and for k = 0 a right-half-plane zero exactly when
  mu/m > 1 (criteria 6 and 7).  Verdicts with |mu/m - 1| < 0.02 are not
  scored: the passivity probes stop at p = 1e3, so mu/m = 1.0023 reads
  passive;
- every crosscheck.json flag passes (criterion 5 and the CLI thresholds);
- memory runs: energy-ledger residual at most 1e-6 of the largest energy
  (criterion 9);
- perfect-mirror runs: fitted runaway rate within 1 % of 1/tau (criterion 8).

The closed form is written out here rather than imported, so the oracle
shares no code with the program and adds nothing to the traced counts.
"""

import json
from dataclasses import dataclass

import numpy as np

OMEGA_C_RTOL = 1e-2
GAMMA_RTOL = 1e-6
VERDICT_MARGIN = 0.02
LEDGER_RTOL = 1e-6
RUNAWAY_RTOL = 1e-2

# Misses that perfbench/NOTES.md records as defects of the program at the
# commit that added this benchmark.  They still count as failed ops; they
# alone leave a run marked correct.  Each predicate bounds the miss to the
# size the defect explains, so a larger error is not excused.
KNOWN_DEFECTS = {
    # stability's default contour stops at re_max ~ 29.9; for 1 < mu/m < 1.2
    # the runaway zero lies beyond it (p ~ 176 at tau Omega = 0.35)
    "rhp_count": lambda c, p: 1.0 + VERDICT_MARGIN < c.mu_over_m < 1.21,
    # reflection_cutoff closes the integral at omega_max = 1e3 with a c/w^2
    # tail while Gamma_R decays like w^-1.8 there: omega_C reads low by
    # 0.27 % per unit Omega, past 1 % from Omega ~ 3.7
    "omega_c": lambda c, p: c.value < 0.003 * p["omega"],
    # trapezoid ledger error grows like (w dt)^2: sine drives near w = 2 on
    # stiff springs reach 1.0e-6 of the largest energy; a step drive on a
    # spring reaches 3.6e-5 at tau Omega = 0.3, k/m = 4
    "energy_ledger": lambda c, p: (
        (p.get("force") == "sine" and c.value < 2e-6)
        or (p.get("force") == "step" and p["k"] > 0.0 and c.value < 5e-5)),
}


@dataclass
class Check:
    oracle: str
    value: float
    passed: bool
    scored: bool = True
    mu_over_m: float = None
    known_defect: bool = False

    @property
    def missed(self):
        return self.scored and not self.passed


def lorentzian_gamma(w, omega):
    """Closed-form Gamma of the single-pole mirror r = -1/(1 - i w/Omega)."""
    x = 1j * np.asarray(w, dtype=float) / omega
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 0.25
    xs = x[small]
    acc, term = np.zeros_like(xs), np.ones_like(xs)
    for n in range(40):
        acc += term / ((n + 2) * (n + 3))
        term = term * xs
    out[small] = 6.0 * acc
    xl = x[~small]
    out[~small] = -6.0 * (-xl + 0.5 * xl * xl - (1.0 - xl) * np.log(1.0 - xl)) / xl**3
    return out


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)


def _omega_c(doc, omega):
    rel = abs(doc["omega_C"] / (3.0 * omega) - 1.0)
    return Check("omega_c", rel, rel <= OMEGA_C_RTOL)


def check_analyze(op, out):
    omega = op.params["omega"]
    checks = [_omega_c(_json(out / "summary.json"), omega)]
    g = _csv(out / "gamma.csv")
    exact = lorentzian_gamma(g[:, 0], omega)
    rel = float(np.max(np.abs(g[:, 1] + 1j * g[:, 2] - exact) / np.abs(exact)))
    checks.append(Check("gamma_closed_form", rel, rel <= GAMMA_RTOL))
    return checks


def check_stability(op, out):
    doc = _json(out / "stability.json")
    p = op.params
    mu = 3.0 * p["omega"] * p["tau"]
    scored = abs(mu - 1.0) >= VERDICT_MARGIN
    checks = [_omega_c(doc, p["omega"]),
              Check("passivity", mu, doc["passive"] == (mu < 1.0), scored, mu)]
    if p["k"] == 0.0:
        count = doc["rhp_zero_count"]
        checks.append(Check("rhp_count", count, (count >= 1) == (mu > 1.0), scored, mu))
    return checks


def check_crosscheck(op, out):
    doc = _json(out / "crosscheck.json")
    flags = [doc[key] for key in ("kk", "spectral_rep", "consistency")]
    worst = max(f["defect"] / f["threshold"] for f in flags)
    return [Check("crosscheck_flags", worst, all(f.get("passed") for f in flags))]


def check_simulate(op, out):
    if op.params["regime"] == "memory":
        e = _csv(out / "energy.csv")  # t, W_a, E, delta_E, W_m, residual
        rel = float(np.max(np.abs(e[:, 5])) / np.max(e[:, 2]))
        return [Check("energy_ledger", rel, rel <= LEDGER_RTOL)]
    fit = _json(out / "run.json")["fitted_runaway"]
    rel = 1.0 if fit is None else abs(fit["rate"] * op.params["tau"] - 1.0)  # no fit: rate 0
    return [Check("runaway_rate", rel, rel <= RUNAWAY_RTOL)]


_CHECKERS = {"analyze": check_analyze, "stability": check_stability,
             "crosscheck": check_crosscheck, "simulate": check_simulate}


def check_op(op, out, exit_code):
    """All checks for one op; a nonzero exit code is itself a miss."""
    if exit_code != 0:
        return [Check("exit_code", exit_code, False)]
    try:
        checks = _CHECKERS[op.command](op, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [Check(f"unreadable_output:{type(exc).__name__}", 0.0, False)]
    for c in checks:
        excuse = KNOWN_DEFECTS.get(c.oracle)
        c.known_defect = c.missed and excuse is not None and bool(excuse(c, op.params))
    return checks
