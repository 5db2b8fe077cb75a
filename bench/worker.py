"""Runs one workload's ops in a fresh interpreter and writes a result JSON.

Started by run.py after the inputs exist, so the generator never sets this
process's peak RSS.  Ops run one at a time (a closed loop with one caller)
until ``--seconds`` have passed.  Each op is timed alone; the correctness
gate and the accuracy scoring run between ops, outside the timed region.
With ``--trace 0`` a fixed reference workload is timed before the first op
and after every op, so each op's wall time can be read against the host's
speed at that moment (see ``reference_s``).  With ``--trace 1`` every input
is run twice, untraced then traced, which gives the tracing overhead as a
paired ratio.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

import gate
import workloads
from tracer import LAYERS, Tracer

MIN_OPS = 3
MAX_FAILURE_LINES = 20

# The reference workload: fixed inputs, no drpi code, the same mix of work
# as an op (interpreted loops, small-array numpy, small LAPACK calls, array
# copies, text-to-float parsing), about 15 ms, a fifth of the cheapest op.
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((200, 60))
_REF_W = np.column_stack([np.ones(200), _REF_RNG.integers(0, 2, 200), _REF_RNG.random(200)])
_REF_TEXT = [repr(x) for x in _REF_A.ravel().tolist()]
# its median wall time on the 2-vCPU VM of README.md, Steadiness, when the
# host was quiet; host-adjusted times are expressed on that host
REFERENCE_NOMINAL_S = 0.0155


def reference_s():
    """Wall time of one pass of the reference workload."""
    t0 = time.perf_counter()
    for j in range(400):
        y = _REF_A[:, j % 60]
        beta = np.linalg.lstsq(_REF_W, y, rcond=None)[0]
        resid = y - _REF_W @ beta
        float(resid @ resid) + sum(float(b) for b in beta) + float(_REF_A.copy().sum())
    sum(float(t) for t in _REF_TEXT)
    for _ in range(4):
        np.linalg.svd(_REF_A, compute_uv=False)
    return time.perf_counter() - t0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    return ap.parse_args(argv)


def import_drpi(root: Path):
    """Import drpi from the checkout's src/, never from anywhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import drpi
    import drpi.cli

    if Path(drpi.__file__).resolve().parent != (src / "drpi").resolve():
        raise ImportError(f"drpi imported from {drpi.__file__}, not {src}")
    return drpi


class Accuracy:
    """Accuracy of one estimator against the generator's truth, pooled."""

    def __init__(self):
        self.mse, self.sq_err, self.fdr, self.tpr = [], [], [], []

    def add(self, truth, nu_hat, beta, fdr, tpr):
        """``beta``: the estimate per column, NaN where the column was skipped."""
        miss = truth.mask == 0
        self.mse.append(float(np.mean((nu_hat[miss] - truth.y_full[miss]) ** 2)))
        err = beta - truth.true_beta()
        self.sq_err += (err[np.isfinite(err)] ** 2).tolist()
        self.fdr.append(fdr)
        self.tpr.append(tpr)

    def summary(self):
        return {
            "impute_mse": statistics.fmean(self.mse),
            "beta_rmse": float(np.sqrt(statistics.fmean(self.sq_err))),
            "fdr": statistics.fmean(self.fdr),
            "tpr": statistics.fmean(self.tpr),
            "datasets": len(self.mse),
        }


def _layer_of(filename, src_pkg: Path):
    path = Path(filename).resolve()
    return path.stem if path.parent == src_pkg and path.stem in LAYERS else "other"


class Runner:
    def __init__(self, args, drpi, root):
        self.args, self.drpi, self.root = args, drpi, root
        w = workloads.WORKLOADS[args.workload]
        self.w = workloads.tiny(w) if args.tiny else w
        self.tracer = Tracer(drpi)
        self.tracer.install_capture()
        self.src_pkg = (root / "src" / "drpi").resolve()
        self.failures = []
        self.attempted = self.failed = 0
        self.walls, self.pair_ratios, self.refs = [], [], []
        self.warnings = Counter()  # untraced ops, by layer
        self.traced_warnings = Counter()
        self.accuracy = Accuracy()
        self._seen = {}  # pool index -> p-values of its first op
        self._truth = {}

    # -- one op --------------------------------------------------------------

    def _call(self, i):
        """The program call of op ``i``; returns (error or None, op output)."""
        w, a, drpi = self.w, self.args, self.drpi
        if w.kind == "simulate":
            cfg = workloads.sim_config(drpi, w, workloads.op_seed(a.seed, i))
            inf = drpi.InferenceConfig(target="a", imputer=drpi.ImputerConfig(backend=w.imputer))
            out = drpi.run_benchmark(cfg, tuple(drpi.MethodKind), inf)
            return (f"failed reps {out.failed_reps}" if out.failed_reps else None), out
        k = i % w.pool
        argv = [
            "analyze",
            "--outcomes", str(a.run_dir / f"outcomes{k}.csv"),
            "--covariates", str(a.run_dir / f"covariates{k}.csv"),
            "--target", "a",
            "--out", str(a.run_dir / "results.csv"),
            "--quiet",
            *w.flags,
        ]
        code = drpi.cli.parse_and_dispatch(argv)
        return (f"analyze exited {code}" if code else None), code

    def run_op(self, i, op_id, traced):
        """Time op ``i`` once; returns its wall time in seconds."""
        self.attempted += 1
        err, out = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with self.tracer.op(op_id, traced):
                t0 = time.perf_counter()
                try:
                    err, out = self._call(i)
                except Exception:  # an op that raises is counted, not fatal
                    err = traceback.format_exc(limit=3)
                wall = time.perf_counter() - t0
        counter = self.traced_warnings if traced else self.warnings
        for wm in caught:
            counter[_layer_of(wm.filename, self.src_pkg)] += 1
        imputed = self.tracer.take_imputed()
        if err:
            fails = [err]
        else:
            try:
                fails = self.check(i, out, imputed, score=not traced)
            except Exception:  # output the gate cannot read is a failed op
                fails = [traceback.format_exc(limit=3)]
        if fails:
            self.failed += 1
            self.failures += [f"op {i}{' traced' if traced else ''}: {f}" for f in fails]
        return wall

    # -- gate and scoring ---------------------------------------------------

    def check(self, i, out, imputed, score):
        if self.w.kind == "simulate":
            return self._check_simulate(i, out, imputed, score)
        return self._check_analyze(i, imputed, score)

    def _truth_for(self, k):
        if k not in self._truth:
            self._truth = {k: workloads.Truth.from_npz(self.args.run_dir / f"truth{k}.npz")}
        return self._truth[k]

    def _nu_hat(self, imputed, truth):
        """The op's imputed matrix if it went through ``imputers.impute``,
        else the same public call made here."""
        if len(imputed) == 1:
            return imputed[0].nu_hat
        cfg = self.drpi.ImputerConfig(backend=self.w.imputer)
        return self.drpi.impute(truth.dataset(self.drpi), cfg).nu_hat

    def _check_analyze(self, i, imputed, score):
        drpi, w = self.drpi, self.w
        rows = gate.read_results(self.args.run_dir / "results.csv")
        if self.args.corrupt:
            for r in rows:
                r.p_value *= 0.5
        k = i % w.pool
        truth = self._truth_for(k)
        fails = gate.check_rows(rows, truth.observed_ids(), workloads.ALPHA)
        pv = np.array([r.p_value for r in rows])
        if k in self._seen and not np.array_equal(self._seen[k], pv):
            fails.append(f"input {k} gave different p-values than on its first op")
        nu_hat = None if w.cross_fit else self._nu_hat(imputed, truth)
        y_obs = truth.y_obs
        rng = np.random.default_rng([self.args.seed, i])
        for idx in rng.choice(len(rows), size=min(gate.LONGHAND_COLUMNS, len(rows)), replace=False):
            j = truth.column[rows[idx].peptide_id]
            c = truth.mask[:, j].astype(float)
            if w.cross_fit:
                want = gate.longhand_cross_fit(
                    y_obs[:, j], c, truth.w, workloads.TARGET_COL,
                    workloads.CROSS_FIT_FOLDS, drpi.fit_logistic,
                )
            else:
                delta = drpi.fit_logistic(c, truth.w).delta_hat
                want = gate.longhand_dr(
                    y_obs[:, j], c, truth.w, nu_hat[:, j], delta, workloads.TARGET_COL
                )
            fails += gate.compare(rows[idx], want, "longhand")
        if score and k not in self._seen:
            if w.cross_fit:
                # infer_cross_fit keeps its fold-wise means to itself; score
                # the lowdim imputer it mirrors, on the same matrix
                nu_hat = drpi.impute_lowdim(truth.dataset(drpi)).nu_hat
            beta = np.full(truth.mask.shape[1], np.nan)
            for r in rows:
                beta[truth.column[r.peptide_id]] = r.beta
            selected = [truth.column[r.peptide_id] for r in rows if r.selected]
            self.accuracy.add(truth, nu_hat, beta, *gate.fdr_tpr(selected, truth.signal))
        self._seen.setdefault(k, pv)
        return fails

    def _check_simulate(self, i, bench, imputed, score):
        drpi = self.drpi
        cfg = workloads.sim_config(drpi, self.w, workloads.op_seed(self.args.seed, i))
        d, sim_truth = drpi.gen_dataset(cfg, rep=0)  # what the op generated
        truth = workloads.Truth.from_sim(d, sim_truth)
        if self.args.corrupt:
            for b in bench.betas.values():
                b *= 0.5
        nu_hat = self._nu_hat(imputed, truth)
        delta = np.column_stack(
            [drpi.fit_logistic(d.mask[:, j].astype(float), d.w).delta_hat for j in range(d.p)]
        )
        want = gate.longhand_all(
            sim_truth.y_full, d.mask, d.w, workloads.TARGET_COL,
            nu_hat, drpi.impute_lowdim(d).nu_hat, delta,
        )
        fails = []
        for m in drpi.MethodKind:
            beta, p = want[m.value]
            got = bench.betas[m][0]
            if not np.allclose(got, beta, rtol=gate.RTOL, atol=gate.ATOL, equal_nan=True):
                bad = int(np.sum(~np.isclose(got, beta, rtol=gate.RTOL, atol=gate.ATOL, equal_nan=True)))
                fails.append(f"{m.value}: {bad} betas differ from the longhand")
            kept = np.flatnonzero(np.isfinite(p))
            selected = kept[sorted(gate.bh_selected(p[kept], workloads.ALPHA))]
            recomputed = gate.fdr_tpr(selected, sim_truth.signal_set)
            reported = (bench.fdr[(m, workloads.ALPHA)][0], bench.tpr[(m, workloads.ALPHA)][0])
            if not np.allclose(reported, recomputed, rtol=0, atol=gate.ATOL):
                fails.append(f"{m.value}: fdr/tpr {reported} != recomputed {recomputed}")
        if score:
            dr_uw = drpi.MethodKind.DR_UW
            self.accuracy.add(truth, nu_hat, bench.betas[dr_uw][0],
                              bench.fdr[(dr_uw, workloads.ALPHA)][0],
                              bench.tpr[(dr_uw, workloads.ALPHA)][0])
        return fails

    # -- the loop -------------------------------------------------------------

    def run(self):
        a = self.args
        self.attempted += 1
        fails = gate.check_golden(
            self.drpi.cli.parse_and_dispatch, self.root / "fixtures", a.run_dir / "golden.csv"
        )
        self.tracer.take_imputed()
        if fails:
            self.failed += 1
            self.failures += fails
        start = time.perf_counter()
        if not a.trace:
            self.refs.append(reference_s())
        i = 0
        # every input of the pool runs, so accuracy is scored on the same
        # datasets however fast the host is
        while i < max(MIN_OPS, self.w.pool) or time.perf_counter() - start < a.seconds:
            wall = self.run_op(i, op_id=2 * i, traced=False)
            self.walls.append(wall)
            if a.trace:
                self.pair_ratios.append(self.run_op(i, op_id=2 * i + 1, traced=True) / wall)
            else:
                self.refs.append(reference_s())
            i += 1
        self.tracer.close()
        return self.result()

    def result(self):
        a = self.args
        res = {
            "workload": self.w.name,
            "n": self.w.n,
            "p": self.w.p,
            "tests_per_op": self.w.tests_per_op,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:MAX_FAILURE_LINES],
            "op_walls": self.walls,
            "op_inputs": [i % self.w.pool if self.w.pool else i for i in range(len(self.walls))],
            "ref_walls": self.refs,
            "ref_nominal_s": REFERENCE_NOMINAL_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "warnings_per_op": {k: v / len(self.walls) for k, v in self.warnings.items()},
            "accuracy": self.accuracy.summary() if self.accuracy.mse else None,
        }
        if a.trace:
            res["layers"] = self.tracer.layer_metrics()
            res["pair_ratios"] = self.pair_ratios
            res["traced_warnings_per_op"] = {
                k: v / len(self.pair_ratios) for k, v in self.traced_warnings.items()
            }
            self.tracer.write_spans(a.run_dir / "spans.csv")
        return res


def main(argv=None):
    args = _parse(argv)
    root = Path(__file__).resolve().parents[1]
    drpi = import_drpi(root)
    result = Runner(args, drpi, root).run()
    with open(args.run_dir / "worker.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
