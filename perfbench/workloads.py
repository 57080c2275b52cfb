"""Seeded op queues for the three benchmark workloads.

Each op is one ``vacmirror`` CLI request with its config text and the
parameters the oracles need.  Parameters are drawn by stratified sampling
(one draw in each of n equal slices of the range, in shuffled order), so
two seeds give different inputs with nearly the same cost distribution;
that keeps run-to-run spread down without fixing the inputs.

Only the standard library and numpy are used, so the queue does not depend
on the program under test.
"""

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("coupling-sweep", "spectral", "timedomain")

# Nominal op costs in seconds (2-core x86 host, one BLAS thread); they size
# the queues from --seconds and are never used as measurements.
_STABILITY_S = 0.45
_TIMEDOMAIN_S = 1.45
_ANALYZE_S = 0.6
# op_tail_s, the 11th-largest latency, then sits at p67 or above; with 22
# ops it sat at p55, on the median, and moved with the ops next to it
MIN_OPS = 30

# Density of the tabulated test fixture make_tabulated_copy(omega_max=1100,
# step=2e-3, log_points=2200): a linear head below 2 Omega, a log tail above.
_TABLE_HEAD_STEP = 2e-3
_TABLE_LOG_FROM = 2.0
_TABLE_TOP = 1100.0
_TABLE_LOG_POINTS = 2200

ANALYZE_GRID = "[grid]\nomega_min = 1.0e-2\nomega_max = 1.0e2\npoints = 100\nspacing = log\n"


@dataclass
class Op:
    """One CLI request: ``vacmirror <command> --config <cfg> --out <dir>``."""

    index: int
    command: str
    label: str
    config: str
    params: dict
    table: dict = None  # {"name", "omega"} for tabulated models

    def argv(self, cfg_path, out_dir):
        return [self.command, "--config", str(cfg_path), "--out", str(out_dir)]


def strata(rng, n, lo, hi, log=True):
    """One draw in each of n equal slices of [lo, hi], in shuffled order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    if log:
        return [lo * (hi / lo) ** x for x in u]
    return [lo + (hi - lo) * x for x in u]


def _lorentzian(omega):
    return f"[model]\nkind = lorentzian\nomega = {omega!r}\n"


def _tabulated(name):
    return f"[model]\nkind = tabulated\ntable = {name}\n"


def _mechanics(tau, k):
    return f"[mechanics]\ntau_omega = {tau!r}\nk_over_m = {k!r}\n"


def _stability_op(i, omega, tau, k, label="stability"):
    return Op(i, "stability", label, _lorentzian(omega) + _mechanics(tau, k),
              {"kind": "lorentzian", "omega": omega, "tau": tau, "k": k})


def coupling_sweep(rng, seconds):
    """One Lorentzian mirror, stability at seeded couplings.

    Every op recomputes the same omega_C, so work shared across requests
    (a cache, a closed form) shows here.  Half the ops have a spring.
    """
    n = max(MIN_OPS, int(seconds / _STABILITY_S))
    taus = strata(rng, n, 1e-3, 1.0)
    springs = strata(rng, n, 0.25, 4.0)
    ops = [_stability_op(i, 1.0, taus[i], 0.0 if i % 2 == 0 else springs[i])
           for i in range(n)]
    warmup = _stability_op(-1, 1.0, 0.01, 0.0)
    return ops, warmup


def _table_op_params(omega):
    return {"kind": "tabulated", "omega": omega}


def spectral(rng, seconds):
    """Every op on a different mirror: nothing is shared between requests.

    Majority analyze (Lorentzian and tabulated Gamma sampled point by
    point), plus one Lorentzian crosscheck (KK, spectral representation,
    consistency check) and one tabulated stability (interpolation, Cauchy
    continuation) per run.
    """
    # The crosscheck and the tabulated stability (about 20 s together) come on
    # top of the analyze ops sized from ``seconds``.
    n_analyze = max(MIN_OPS - 2, int(seconds / _ANALYZE_S))
    omegas = strata(rng, n_analyze - 1, 0.5, 4.0)
    tab_omega = strata(rng, 1, 0.8, 1.25)[0]
    ops = []
    for om in omegas:
        ops.append(Op(0, "analyze", "analyze", _lorentzian(om) + _mechanics(1e-3, 0.0)
                      + ANALYZE_GRID, {"kind": "lorentzian", "omega": om}))
    ops.append(Op(0, "analyze", "analyze-tabulated",
                  _tabulated("table0.txt") + _mechanics(1e-3, 0.0) + ANALYZE_GRID,
                  _table_op_params(tab_omega), {"name": "table0.txt", "omega": tab_omega}))
    # The two long ops, one of each per run, draw from narrow ranges: their
    # cost moves with Omega and tau by up to 40 %, and they are half of wall_s.
    st_omega = strata(rng, 1, 0.95, 1.05)[0]
    st_tau = strata(rng, 1, 0.02, 0.05)[0]
    ops.append(Op(0, "stability", "stability-tabulated",
                  _tabulated("table1.txt") + _mechanics(st_tau, 0.0),
                  dict(_table_op_params(st_omega), tau=st_tau, k=0.0),
                  {"name": "table1.txt", "omega": st_omega}))
    cc_omega = strata(rng, 1, 4.8, 5.2)[0]
    # the spectral representation refuses mu >= m, with mu/m = 3 Omega tau
    cc_tau = strata(rng, 1, 0.1, 0.3)[0] / (3.0 * cc_omega)
    ops.append(Op(0, "crosscheck", "crosscheck", _lorentzian(cc_omega)
                  + _mechanics(cc_tau, 0.0), {"kind": "lorentzian", "omega": cc_omega}))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op.index = i
    warm_omega = strata(rng, 1, 0.5, 4.0)[0]
    warmup = Op(-1, "analyze", "analyze", _lorentzian(warm_omega) + ANALYZE_GRID,
                {"kind": "lorentzian", "omega": warm_omega})
    return ops, warmup


_FORCES = ("gaussian", "step", "sine")


def _simulate_op(i, regime, tau, k, force, t_final, frequency):
    model = (_lorentzian(1.0) if regime == "memory"
             else "[model]\nkind = perfect\n")
    sim = (f"[simulation]\nforce = {force}\namplitude = 1.0e-3\ncenter = 5.0\n"
           f"width = 1.5\nfrequency = {frequency!r}\nt_final = {t_final!r}\n"
           f"dt = 1.0e-3\nregime = {regime}\n")
    return Op(i, "simulate", f"simulate-{regime}", model + _mechanics(tau, k) + sim,
              {"kind": "lorentzian" if regime == "memory" else "perfect",
               "omega": 1.0, "regime": regime, "tau": tau, "k": k,
               "force": force, "t_final": t_final})


def timedomain(rng, seconds):
    """simulate in both regimes: four memory runs to one perfect-mirror run.

    Memory runs spend their time in the O(n^2) history sum, the kernel
    build and the row-by-row CSV writers; perfect runs in the RK4 loop.
    A memory run's kernel FFT doubles past t_final = 32.768 (2^15 steps),
    so its cost jumps there.  With one perfect run in five, the queue's
    median op is a memory run with t_final near 35 and its 11th-largest
    near 42, both clear of the jump; with one in three the median sat on
    it and moved by 14 % between seeds.
    """
    n = max(MIN_OPS, int(seconds / _TIMEDOMAIN_S))
    n_perfect = n // 5
    n_memory = n - n_perfect
    mem_tau = strata(rng, n_memory, 1e-3, 0.3)
    mem_tf = strata(rng, n_memory, 20.0, 60.0, log=False)
    springs = strata(rng, n_memory, 0.25, 4.0)
    freqs = strata(rng, n, 0.5, 2.0)
    per_tau = strata(rng, n_perfect, 0.1, 1.0)
    per_tf = strata(rng, n_perfect, 10.0, 20.0, log=False)
    ops = []
    for j in range(n_memory):
        k = 0.0 if j % 2 == 0 else springs[j]
        ops.append(_simulate_op(0, "memory", mem_tau[j], k, rng.choice(_FORCES),
                                round(mem_tf[j], 3), freqs[j]))
    for j in range(n_perfect):
        ops.append(_simulate_op(0, "perfect", per_tau[j], 0.0, rng.choice(_FORCES),
                                round(per_tf[j], 3), freqs[n_memory + j]))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op.index = i
    warmup = _simulate_op(-1, "memory", 0.01, 0.0, "gaussian", 10.0, 1.0)
    return ops, warmup


_BUILDERS = {"coupling-sweep": coupling_sweep, "spectral": spectral,
             "timedomain": timedomain}


def make_queue(workload, seed, seconds):
    """The op queue and an untimed warm-up op, as a function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, seconds)


def table_grid(omega):
    """Table nodes: the fixture's grid scaled to the mirror's Omega."""
    head = np.arange(0.0, _TABLE_LOG_FROM, _TABLE_HEAD_STEP)
    tail = np.geomspace(_TABLE_LOG_FROM, _TABLE_TOP, _TABLE_LOG_POINTS)
    return omega * np.unique(np.concatenate([head, tail]))


def write_inputs(ops, directory):
    """Write each op's config (and table, if any) under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        if op.table is not None:
            w = table_grid(op.table["omega"])
            r = -1.0 / (1.0 - 1j * w / op.table["omega"])
            s = 1.0 + r
            data = np.column_stack([w, r.real, r.imag, s.real, s.imag])
            np.savetxt(directory / op.table["name"], data, fmt="%.15e",
                       header="omega re_r im_r re_s im_s")
        cfg = directory / f"op{op.index}.cfg"
        cfg.write_text(op.config)
        paths.append(cfg)
    return paths
