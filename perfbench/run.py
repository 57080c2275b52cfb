"""Benchmark: time to a verified result from the vacmirror command line.

    python3 perfbench/run.py --workload coupling-sweep --seed 1 --seconds 15 --trace 0

Each run builds a seeded queue of CLI requests (``vacmirror.cli.main``) for
one workload and sends them one at a time from a single client, each after
the previous one has returned (a closed loop).  Every op's output files are
checked against an oracle outside the op timers.  Op and set-up times are
scaled to a nominal host speed by a gauge read between ops (see
``hostgauge.py``), because the host's speed drifts.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` the
queue runs once untraced and once with every public function of the seven
layer modules wrapped, and the last line carries the per-layer metrics.
The line before it is a report: environment, failures by oracle, worst
check errors and the host-speed gauge.  Reports and span files go to
``.bench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout; nothing is installed.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pinned before numpy is first imported (BLAS reads these at load time): the
# memory integrator ran 8x slower with two BLAS threads on a 2-core host.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # two fresh processes plus the run's own set-up
TAIL_BEYOND = 10  # op_tail_s: the highest latency with ten ops beyond it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

_SPAN_STATS = {
    "susceptibility.reflection_cutoff": ("calls", "total_s"),
    "numerics.adaptive_gauss_legendre": ("calls", "self_s"),
    "susceptibility.gamma": ("calls", "self_s"),
    "susceptibility.compute_susceptibility": ("total_s",),
    "dispersion.kk_reconstruct": ("calls", "total_s"),
    "dispersion.continue_upper_half": ("calls", "total_s"),
    "dispersion.consistency_check": ("total_s",),
    "numerics.pv_hilbert_even": ("calls", "total_s"),
    "analysis.sample_gamma_real": ("total_s",),
    "analysis.count_rhp_zeros": ("total_s",),
    "analysis.passivity_check": ("total_s",),
    "analysis.stability_report": ("total_s",),
    "analysis.spectral_impedance": ("calls", "total_s"),
    "analysis.refine_root": ("calls",),
    "dynamics.simulate_with_memory": ("total_s", "steps"),
    "dynamics.simulate_perfect_mirror": ("total_s", "steps"),
    "dynamics.energy_ledger": ("total_s",),
    "dispersion.build_time_kernel": ("total_s", "n_fft"),
    "dispersion.acceleration_weights": ("total_s",),
    "dynamics.export_run_csv": ("total_s", "bytes"),
    "dynamics.export_energy_csv": ("total_s", "bytes"),
    "dispersion.TimeKernel.to_csv": ("total_s",),
    "cli.cmd_analyze": ("self_s",),
    "cli.cmd_stability": ("self_s",),
    "cli.cmd_simulate": ("self_s",),
    "cli.cmd_crosscheck": ("self_s",),
    "cli.parse_config": ("total_s",),
}
_COUNTER_STATS = (
    "numerics.adaptive_gauss_legendre.nodes",
    "scattering.reflectivity.calls",
    "scattering.reflectivity.points",
    "scattering.transmissivity.calls",
    "scattering.transmissivity.points",
    "analysis.laplace_impedance.points",
    "numerics.secant_root.f_evals",
)
LAYER_MODULES = ("scattering", "susceptibility", "numerics", "dispersion", "analysis",
                 "dynamics", "cli")  # the modules tracer.py wraps
_MODULE_SELF = tuple(f"{m}.self_s" for m in LAYER_MODULES)
_CHECKS = ("omega_c", "gamma_closed_form", "crosscheck_flags", "energy_ledger",
           "runaway_rate")
_HARNESS_STATS = (
    "cli.bytes_written", "setup.import_s", "host.ref_p50_s", "host.steal_frac",
    "host.cpu_s", "host.blas_threads", "trace.overhead_frac",
    "check.failed_ops", "check.failed_frac", "check.known_defect_ops",
    "check.unscored_verdicts",
) + tuple(f"check.{name}.worst" for name in _CHECKS)


def _unit(name):
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("frac") or last == "worst":
        return "frac"
    if last in ("bytes", "bytes_written"):
        return "bytes"
    return "count"


def per_layer_names():
    names = [f"{q}.{stat}" for q, stats in _SPAN_STATS.items() for stat in stats]
    return names + list(_COUNTER_STATS) + list(_MODULE_SELF) + list(_HARNESS_STATS)


PER_LAYER = {name: _unit(name) for name in per_layer_names()}


def pin_environment():
    """Re-exec under the pinned environment unless it is already in force."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("coupling-sweep", "spectral", "timedomain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once in this process, print the timings and exit")
    return p.parse_args(argv)


class Setup:
    """Import of vacmirror, input generation and one untimed warm-up op."""

    def __init__(self, workload, seed, seconds, work_dir):
        t0 = time.perf_counter()
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import vacmirror
        import vacmirror.cli

        self.import_s = time.perf_counter() - t0
        import workloads

        self.package, self.cli = vacmirror, vacmirror.cli
        self.work_dir = Path(work_dir)
        self.ops, warmup = workloads.make_queue(workload, seed, seconds)
        cfgs = workloads.write_inputs(self.ops + [warmup], self.work_dir / "inputs")
        self.cfgs = cfgs[:-1]
        self.warmup_code = self.cli.main(warmup.argv(cfgs[-1], self.work_dir / "warmup"))
        shutil.rmtree(self.work_dir / "warmup", ignore_errors=True)
        self.setup_s = time.perf_counter() - t0

    def sample(self):
        """The set-up timings, with the host gauge read right after set-up."""
        import hostgauge

        ref_s = hostgauge.reference_kernel()
        return {"import_s": self.import_s, "setup_s": self.setup_s, "ref_s": ref_s,
                "scaled_setup_s": self.setup_s * hostgauge.REF_NOMINAL_S / ref_s,
                "warmup_code": self.warmup_code}


def probe_setup(args):
    work = OUT / f"setup-{os.getpid()}"
    try:
        print(json.dumps(Setup(args.workload, args.seed, args.seconds, work).sample()))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def fresh_setup_samples(args, n):
    """Set-up timings from ``n`` fresh processes, run one after another."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def run_queue(setup, tracer=None):
    """Send the ops one at a time; checks, gc and the gauge stay outside the timers.

    Each record holds the op's latency and ``scaled_s``, the latency at the
    nominal host speed, from the gauge read before it and before the next op
    (after the last op for the last).
    """
    import hostgauge
    import oracles

    records = []
    ticks0 = hostgauge.cpu_ticks()
    for op, cfg in zip(setup.ops, setup.cfgs):
        out = setup.work_dir / f"op{op.index}"
        gc.collect()
        ref_s = hostgauge.reference_kernel()
        if tracer is not None:
            tracer.current_op = op.index
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = setup.cli.main(op.argv(cfg, out))
        except Exception:  # the queue must go on; the op counts as failed
            code, error = None, traceback.format_exc(limit=3)
        latency, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.current_op = -1
        checks = (oracles.check_op(op, out, code) if error is None
                  else [oracles.Check("exception", 0.0, False)])
        records.append({
            "op": op.index, "label": op.label, "params": op.params, "exit_code": code,
            "latency_s": latency, "cpu_s": cpu, "ref_s": ref_s,
            "bytes": _dir_bytes(out) if out.exists() else 0,
            "checks": checks, "error": error,
        })
        shutil.rmtree(out, ignore_errors=True)
    after = [r["ref_s"] for r in records[1:]] + [hostgauge.reference_kernel()]
    for r, ref_after in zip(records, after):
        r["scaled_s"] = r["latency_s"] * hostgauge.speed_scale(r["ref_s"], ref_after)
    return records, hostgauge.steal_fraction(ticks0, hostgauge.cpu_ticks())


def failures(records):
    """One entry per scored miss, attributed to its oracle."""
    out = []
    for r in records:
        for c in r["checks"]:
            if c.missed:
                out.append({"op": r["op"], "label": r["label"], "oracle": c.oracle,
                            "value": c.value, "known_defect": c.known_defect,
                            "params": r["params"]})
    return out


def check_stats(records):
    worst = {name: 0.0 for name in _CHECKS}
    for r in records:
        for c in r["checks"]:
            if c.oracle in worst:
                worst[c.oracle] = max(worst[c.oracle], float(c.value))
    failed = [r for r in records if any(c.missed for c in r["checks"])]
    return {
        **{f"check.{k}.worst": v for k, v in worst.items()},
        "check.failed_ops": len(failed),
        "check.failed_frac": len(failed) / len(records),
        "check.known_defect_ops": sum(1 for r in failed
                                      if all(c.known_defect for c in r["checks"] if c.missed)),
        "check.unscored_verdicts": sum(1 for r in records for c in r["checks"]
                                       if not c.scored),
    }


def queue_times(records, key):
    """wall_s, ops_per_s, op_p50_s and op_tail_s from each record's ``key``."""
    lat = sorted(r[key] for r in records)
    wall = sum(lat)
    return {
        "wall_s": wall,
        "ops_per_s": len(lat) / wall,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": lat[-1 - TAIL_BEYOND],
    }


def end_to_end(records, setup_samples):
    return {
        "setup_s": statistics.median(s["scaled_setup_s"] for s in setup_samples),
        **queue_times(records, "scaled_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced, setup_samples, steal):
    stats = tracer.summary()
    stats.update({f"{m}.self_s": sum(v for k, v in stats.items()
                                     if k.startswith(m + ".") and k.endswith(".self_s"))
                  for m in LAYER_MODULES})
    wall_t = sum(r["scaled_s"] for r in traced)
    wall_u = sum(r["scaled_s"] for r in untraced)
    stats.update(check_stats(untraced + traced))
    stats.update({
        "cli.bytes_written": sum(r["bytes"] for r in traced),
        "setup.import_s": statistics.median(s["import_s"] for s in setup_samples),
        "host.ref_p50_s": statistics.median(r["ref_s"] for r in untraced + traced),
        "host.steal_frac": steal,
        "host.cpu_s": sum(r["cpu_s"] for r in untraced),
        "host.blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "trace.overhead_frac": wall_t / wall_u - 1.0,
    })
    return {name: stats.get(name, 0.0) for name in PER_LAYER}


def _jsonable(records):
    return [dict(r, checks=[vars(c) for c in r["checks"]]) for r in records]


def main(argv=None):
    pin_environment()
    args = parse_args(argv)
    if not (SRC / "vacmirror" / "__init__.py").is_file():
        print(f"vacmirror sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        probe_setup(args)
        return 0

    samples = fresh_setup_samples(args, SETUP_SAMPLES - 1)
    work = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = Setup(args.workload, args.seed, args.seconds, work)
        samples.append(setup.sample())
        import hostgauge
        import tracer as tracing

        untraced, steal = run_queue(setup)
        records, units, restored = untraced, END_TO_END, True
        if args.trace:
            tr = tracing.Tracer()
            tr.install(setup.package)
            try:
                traced, steal_t = run_queue(setup, tr)
            finally:
                tr.restore()
            restored = tracing.all_restored(setup.package)
            metrics = per_layer(tr, traced, untraced, samples, max(steal, steal_t))
            units = PER_LAYER
            records = untraced + traced
            tr.save(OUT / f"spans-{args.workload}-s{args.seed}.npz")
        else:
            metrics = end_to_end(untraced, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    misses = failures(records)
    checks = check_stats(records)
    correct = restored and all(m["known_defect"] for m in misses) and all(
        s["warmup_code"] == 0 for s in samples)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": hostgauge.environment(ROOT),
        "op_count": len(untraced),
        "op_tail_rank": f"{TAIL_BEYOND + 1}th largest",
        "op_tail_percentile": 100.0 * (len(untraced) - TAIL_BEYOND) / len(untraced),
        "failures": misses,
        "checks": checks,
        "host": {"ref_p50_s": statistics.median(r["ref_s"] for r in untraced),
                 "ref_nominal_s": hostgauge.REF_NOMINAL_S,
                 "steal_frac": steal, "cpu_s": sum(r["cpu_s"] for r in untraced)},
        "unscaled": queue_times(untraced, "latency_s"),
        "setup_samples": samples,
        "tracer_restored": restored,
    }
    (OUT / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(dict(report, ops=_jsonable(records)), indent=1, default=str))
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": bool(correct), "attempted": len(records),
        "failed": checks["check.failed_ops"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
