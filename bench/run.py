"""drpi benchmark: one workload (or ``all`` in turn), one seed, one run.

    python3 bench/run.py --workload analyze-soft --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up (not timed) records the
environment, times fresh-interpreter ``import drpi`` and writes the inputs;
a fresh worker process then runs the ops (see worker.py).  Human-readable
lines go to stdout first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Exit status is 0 only when every correctness check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh-interpreter import timings taken before and again after the worker;
# host speed drifts over tens of seconds, so sampling both ends steadies setup_s
IMPORT_PROBES = 2
# reference passes timed between import probes; their median is the host's
# speed at that moment
REFERENCE_BLOCK = 5
WORKER_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".bench_build" / "drpi"

# the per-layer metric that holds each layer's self time
SELF_TIME_SUFFIXES = (".self_s", ".impute_s", ".fit_s", ".adjust_s")

_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import drpi.cli; print(time.perf_counter() - t)"
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny shapes, for the self-test")
    ap.add_argument(
        "--corrupt", action="store_true",
        help="halve every reported p-value (analyze) or beta (simulate); the gate must fail",
    )
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _git(*args):
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed, caller_blas):
    import numpy as np
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "seed": seed,
        "blas_threads_from_caller": caller_blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_pinned_by_caller": all(caller_blas[v] == "1" for v in BLAS_VARS),
    }


def time_import(probes):
    """Wall times of ``import drpi.cli`` (what the drpi command loads) in
    fresh interpreters, as (seconds, seconds of the nominal host) pairs.

    Each probe is divided by the mean of the reference blocks timed just
    before and just after it, as ops are (see ``host_adjusted_op_s``)."""
    from worker import REFERENCE_NOMINAL_S, reference_s

    def host_speed():
        return statistics.median(reference_s() for _ in range(REFERENCE_BLOCK))

    times = []
    before = host_speed()
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE], cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        wall, after = float(out.stdout.strip()), host_speed()
        times.append((wall, wall / (0.5 * (before + after)) * REFERENCE_NOMINAL_S))
        before = after
    return times


def run_worker(args, run_dir):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--run-dir", str(run_dir),
    ]
    cmd += ["--tiny"] * args.tiny + ["--corrupt"] * args.corrupt
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    with open(run_dir / "worker.json") as fh:
        return json.load(fh)


def host_adjusted_op_s(res):
    """Op time in seconds of the nominal host: see README.md, Steadiness.

    Each op's wall time is divided by the mean of the reference passes timed
    just before and just after it; other tenants of a shared host slow both
    alike.  The repeats of one input are summarised by their median, which
    drops an op that a burst of their work still skewed, and the inputs are
    averaged, so each weighs the same however many ops the run held."""
    walls, refs = res["op_walls"], res["ref_walls"]
    by_input = defaultdict(list)
    for i, (wall, key) in enumerate(zip(walls, res["op_inputs"])):
        by_input[key].append(wall / (0.5 * (refs[i] + refs[i + 1])))
    return statistics.fmean(map(statistics.median, by_input.values())) * res["ref_nominal_s"]


def end_to_end(res, setup_times):
    acc = res["accuracy"]
    return {
        "setup_s": statistics.median(adjusted for _, adjusted in setup_times),
        "tests_per_s": res["tests_per_op"] / host_adjusted_op_s(res),
        "peak_rss_mb": res["peak_rss_mb"],
        "impute_mse": acc["impute_mse"],
        "beta_rmse": acc["beta_rmse"],
    }


def per_layer(res):
    """Per-op means over the traced ops (see README.md for definitions)."""
    ops = res["layers"]

    def mean(key):
        return statistics.fmean(m.get(key, 0.0) for m in ops)

    def ratio(num, den):
        d = mean(den)
        return mean(num) / d if d else 0.0

    warn = res["traced_warnings_per_op"]
    return {
        "cli.self_s": mean("self.cli"),
        "data_model.self_s": mean("self.data_model"),
        "data_model.load_s": mean("incl.data_model.load_dataset"),
        "data_model.cells_per_s": ratio("data_model.cells", "incl.data_model.load_dataset"),
        "data_model.write_s": mean("incl.data_model.write_results"),
        "data_model.select_calls": mean("data_model.select_calls"),
        "data_model.select_mb": mean("data_model.select_bytes") / 1e6,
        "data_model.rank_checks": mean("data_model.matrix_rank_calls"),
        "data_model.warnings": warn.get("data_model", 0.0),
        "imputers.impute_s": mean("self.imputers"),
        "imputers.svd_calls": mean("imputers.svd_calls"),
        "imputers.svd_s": mean("imputers.svd_s"),
        "imputers.lstsq_calls": mean("imputers.lstsq_calls"),
        "imputers.nonconverged": mean("imputers.nonconverged"),
        "imputers.warnings": warn.get("imputers", 0.0),
        "propensity.fit_s": mean("self.propensity"),
        "propensity.fits": mean("propensity.fits"),
        "propensity.iterations_mean": ratio("propensity.iterations", "propensity.fits"),
        "propensity.unconverged": mean("propensity.unconverged"),
        "propensity.clipped_frac": ratio("propensity.clipped", "propensity.delta_cells"),
        "dr_inference.self_s": mean("self.dr_inference"),
        "dr_inference.infer_all_s": mean("incl.dr_inference.infer_all"),
        "dr_inference.infer_peptide_calls": mean("calls.dr_inference.infer_peptide"),
        "dr_inference.ols_calls": mean("calls.dr_inference.ols_sandwich"),
        "dr_inference.ols_s": mean("incl.dr_inference.ols_sandwich"),
        "dr_inference.dist_sf_calls": mean("dr_inference.dist_sf_calls"),
        "dr_inference.dist_sf_s": mean("dr_inference.dist_sf_s"),
        "dr_inference.cross_fit_s": mean("incl.dr_inference.infer_cross_fit"),
        "dr_inference.skips": mean("dr_inference.skips"),
        "multiple_testing.adjust_s": mean("self.multiple_testing"),
        "multiple_testing.bh_calls": mean("calls.multiple_testing.bh_qvalues"),
        "multiple_testing.selected": mean("multiple_testing.selected"),
        "sim_bench.self_s": mean("self.sim_bench"),
        "sim_bench.gen_s": mean("incl.sim_bench.gen_dataset"),
        "sim_bench.failed_reps": mean("sim_bench.failed_reps"),
        "trace.op_s": mean("trace.op_s"),
        "trace.unattributed_s": mean("self.op"),
        "trace.overhead_frac": statistics.median(res["pair_ratios"]) - 1.0,
        "trace.warnings_other": warn.get("other", 0.0),
    }


def _timing_line(walls):
    """Median and the highest percentile with at least ten samples beyond it."""
    s = sorted(walls)
    line = f"op wall: median {statistics.median(s):.4f} s over {len(s)} ops"
    if len(s) >= 20:
        line += f", p{100 * (len(s) - 10) // len(s)} {s[len(s) - 11]:.4f} s"
    return line + f", max {s[-1]:.4f} s"


def report(args, env, res, setup_times, spec_units, metrics):
    print(f"drpi bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"n={res['n']} p={res['p']} tests/op={res['tests_per_op']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if not env["blas_pinned_by_caller"]:
        print("note: BLAS thread variables were not all 1 in the caller's environment; "
              "this run set them to 1")
    print("import drpi.cli (s): " + ", ".join(f"{t:.4f}" for t, _ in setup_times)
          + "; host-adjusted: " + ", ".join(f"{t:.4f}" for _, t in setup_times))
    print(_timing_line(res["op_walls"]))
    if res["ref_walls"]:
        print(f"reference pass: median {statistics.median(res['ref_walls']):.5f} s over "
              f"{len(res['ref_walls'])} passes (nominal {res['ref_nominal_s']} s); "
              f"host-adjusted op: {host_adjusted_op_s(res):.4f} s; unadjusted "
              f"throughput {res['tests_per_op'] / statistics.median(res['op_walls']):.6g} tests/s")
    print(f"warnings per op by layer: {json.dumps(res['warnings_per_op'], sort_keys=True)}")
    error_rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':<34} {error_rate:.6g} fraction ({res['failed']} of {res['attempted']})")
    acc = res["accuracy"] or {}
    for name, unit in (("fdr", "fraction"), ("tpr", "fraction")):
        if name in acc:
            print(f"  {name:<34} {acc[name]:.6g} {unit} (dr_uw at alpha=0.05, "
                  f"mean over {acc['datasets']} datasets; reported, not gated)")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {spec_units[name]}")
    if args.trace:
        op_s = metrics["trace.op_s"]
        self_keys = [k for k in metrics if k.endswith(SELF_TIME_SUFFIXES)]
        shares = sorted(((metrics[k] / op_s, k.split(".")[0]) for k in self_keys), reverse=True)
        print("layer self-time shares of the traced op: "
              + ", ".join(f"{layer} {share:.1%}" for share, layer in shares))
        print(f"layer self times {sum(metrics[k] for k in self_keys):.6f} s + unattributed "
              f"{metrics['trace.unattributed_s']:.6f} s = traced op {op_s:.6f} s; "
              f"tracing overhead {metrics['trace.overhead_frac']:.1%}")
    for f in res["failures"]:
        print(f"FAIL {f}")


def main(argv=None):
    args = _parse(argv)
    caller_blas = {v: os.environ.get(v) for v in BLAS_VARS}
    for v in BLAS_VARS:  # before numpy is imported, here and in every child
        os.environ[v] = "1"
    if not (ROOT / "src" / "drpi" / "__init__.py").is_file():
        print(f"drpi bench: no drpi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"drpi bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    codes = [run_one(argparse.Namespace(**{**vars(args), "workload": name}), caller_blas, units)
             for name in names]
    return max(codes)


def run_one(args, caller_blas, units):
    """One workload: set-up, worker, report.  Returns the exit status."""
    import workloads
    from worker import import_drpi

    run_dir = RUNS_DIR / f"{args.workload}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        env = environment(args.seed, caller_blas)
        probes = 1 if args.tiny else IMPORT_PROBES
        setup_times = time_import(probes)
        drpi = import_drpi(ROOT)
        w = workloads.WORKLOADS[args.workload]
        workloads.write_inputs(drpi, workloads.tiny(w) if args.tiny else w, args.seed, run_dir)
        res = run_worker(args, run_dir)
        setup_times += time_import(probes)
    except (RuntimeError, subprocess.SubprocessError, OSError, ImportError) as exc:
        print(f"drpi bench: {exc}", file=sys.stderr)
        return 1
    finally:
        for f in run_dir.glob("*.csv"):
            if f.name != "spans.csv":
                f.unlink()
        for f in run_dir.glob("*.npz"):
            f.unlink()

    if res["accuracy"] is None and not args.trace:
        for f in res["failures"]:
            print(f"FAIL {f}")
        print("drpi bench: no op passed the gate; no metrics", file=sys.stderr)
        return 1
    computed = per_layer(res) if args.trace else end_to_end(res, setup_times)
    metrics = {name: computed[name] for name in units}
    report(args, env, res, setup_times, units, metrics)
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
