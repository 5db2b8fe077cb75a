"""End-to-end acceptance gate.

Each numbered test checks one acceptance criterion and prints a single
PASS/FAIL line (visible with ``pytest -s`` or on failure).  Monte Carlo
criteria use fixed seeds and pinned tolerances; the shared desk-scale
benchmark is computed once per session and reused.
"""
import time

import numpy as np
import pytest
from scipy import stats

from drpi import propensity
from drpi.data_model import Dataset, MethodKind
from drpi.dr_inference import InferenceConfig, infer_columns, ols_sandwich, pseudo_outcomes
from drpi.imputers import ImputerConfig, impute_soft
from drpi.multiple_testing import bh_qvalues, select
from drpi.sim_bench import (
    SimConfig,
    _rep_rng,
    mar_missing_prob,
    run_benchmark,
    toy_power_experiment,
    toy_power_to_csv,
)

ALPHA = 0.05

# Benchmark DR_UW uses the peptide-neighbor imputer: its transferred values
# never include the target column's own cells, which keeps the plug-in
# sandwich calibrated at n=200 (the soft backend's same-column fit is
# anti-conservative at this scale; both remain available as flags).
DESK_INF = InferenceConfig(
    target="a", imputer=ImputerConfig(backend="knn", k_neighbors=10)
)
DESK_METHODS = (
    MethodKind.COMPLETE,
    MethodKind.PLUGIN,
    MethodKind.DR_W,
    MethodKind.DR_UW,
)


def report(num, name, ok, detail=""):
    print(f"[{num:>2}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def desk_bench(tmp_path_factory):
    cfg = SimConfig(
        model=3, n=200, p=300, noise_rho=0.5, seed=2, reps=100, cutoffs=(ALPHA,)
    )
    t0 = time.monotonic()
    res = run_benchmark(cfg, DESK_METHODS, inf_cfg=DESK_INF)
    elapsed = time.monotonic() - t0
    path = tmp_path_factory.mktemp("bench") / "desk.csv"
    res.to_csv(path)
    return cfg, res, elapsed, path


@pytest.fixture(scope="session")
def toy_rows(tmp_path_factory):
    grid = np.round(np.arange(0.1, 1.0001, 0.1), 10)
    t0 = time.monotonic()
    rows = toy_power_experiment(grid, n=200, beta=0.2, delta=0.7, reps=5000, seed=0)
    elapsed = time.monotonic() - t0
    path = tmp_path_factory.mktemp("toy") / "power.csv"
    toy_power_to_csv(rows, path)
    return grid, rows, elapsed, path


def test_01_sandwich_longhand_oracle():
    w = np.array([[1.0, -1.0], [1.0, 0.5], [1.0, 2.0], [1.0, 3.5], [1.0, -2.0]])
    y = np.array([0.3, -1.1, 2.4, 0.9, -0.5])
    n, q = w.shape

    t0 = time.monotonic()
    gram = np.zeros((q, q))
    xty = np.zeros(q)
    for i in range(n):
        for a in range(q):
            xty[a] += w[i, a] * y[i]
            for b in range(q):
                gram[a, b] += w[i, a] * w[i, b]
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    ginv = np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det
    beta = ginv @ xty
    meat = np.zeros((q, q))
    for i in range(n):
        r = y[i] - (w[i, 0] * beta[0] + w[i, 1] * beta[1])
        for a in range(q):
            for b in range(q):
                meat[a, b] += r * r * w[i, a] * w[i, b] / n
    cov = (ginv * n) @ meat @ (ginv * n) / n

    fit = ols_sandwich(y, w, "sandwich")
    err = max(
        float(np.abs(fit.beta - beta).max()), float(np.abs(fit.cov - cov).max())
    )
    elapsed = time.monotonic() - t0
    report(1, "sandwich-longhand-oracle", err < 1e-12 and elapsed < 1.0,
           f"max abs err {err:.2e}, {elapsed:.3f}s")


def test_02_estimator_collapse_all_observed():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    n, p = 50, 20
    a = np.zeros(n)
    a[rng.permutation(n)[: n // 2]] = 1.0
    x = rng.uniform(size=n)
    w = np.column_stack([np.ones(n), a, x])
    y = rng.normal(size=(n, p))
    mask = np.ones((n, p), dtype=np.int8)
    d = Dataset(
        y_obs=y.copy(), mask=mask, w=w,
        peptide_ids=tuple(f"p{j}" for j in range(p)),
        sample_ids=tuple(str(i) for i in range(n)),
        covariate_names=("intercept", "a", "x"),
    )
    cfg = InferenceConfig(
        target="a", variance_mode="sandwich",
        imputer=ImputerConfig(backend="lowdim"),
    )
    ref = infer_columns(d, MethodKind.FULL, cfg, oracle=y)
    worst = 0.0
    for m in (MethodKind.COMPLETE, MethodKind.PLUGIN_MISSING,
              MethodKind.DR_W, MethodKind.DR_UW):
        res = infer_columns(d, m, cfg)
        assert res.kept.all()
        worst = max(worst, np.abs(res.beta - ref.beta).max())
    elapsed = time.monotonic() - t0
    report(2, "estimator-collapse", worst < 1e-12 and elapsed < 1.0,
           f"max |beta diff| {worst:.2e}, {elapsed:.3f}s")


def _mar_column(rng, n, beta_true):
    a = np.zeros(n)
    a[rng.permutation(n)[: n // 2]] = 1.0
    x = rng.uniform(size=n)
    y = beta_true * a + x + rng.standard_normal(n)
    miss_p = mar_missing_prob(x)
    c = (rng.random(n) >= miss_p).astype(float)
    w = np.column_stack([np.ones(n), a, x])
    return a, x, y, c, w, miss_p


def test_03_size_and_coverage_true_nuisances():
    t0 = time.monotonic()
    beta_true, n, reps = 0.4, 500, 1000
    zcrit = stats.norm.ppf(0.975)
    zs = np.empty(reps)
    covered = 0
    for rep in range(reps):
        rng = _rep_rng(42, rep)
        a, x, y, c, w, miss_p = _mar_column(rng, n, beta_true)
        delta = 1.0 - miss_p
        nu = beta_true * a + x
        po = pseudo_outcomes(np.where(c == 1, y, np.nan), c, delta, nu)
        fit = ols_sandwich(po.y_tilde, w, "sandwich")
        z = (fit.beta[1] - beta_true) / np.sqrt(fit.cov[1, 1])
        zs[rep] = z
        covered += abs(z) <= zcrit
    coverage = covered / reps
    ks = stats.kstest(zs, "norm").statistic
    elapsed = time.monotonic() - t0
    ok = 0.92 <= coverage <= 0.98 and ks <= 0.05 and elapsed < 300
    report(3, "size-coverage-true-nuisances", ok,
           f"coverage {coverage:.3f}, KS {ks:.3f}, {elapsed:.1f}s")


def test_04_double_robustness():
    t0 = time.monotonic()
    beta_true, n, reps = 0.4, 500, 500
    details = []
    ok = True
    for tag in ("garbage-nu", "perturbed-delta"):
        betas = np.empty(reps)
        for rep in range(reps):
            rng = _rep_rng(43, rep)
            a, x, y, c, w, miss_p = _mar_column(rng, n, beta_true)
            if tag == "garbage-nu":
                delta = 1.0 - miss_p
                nu = rng.normal(5.0, 3.0, size=n)
            else:
                delta = np.clip(
                    1.0 - miss_p + rng.uniform(-0.15, 0.15, size=n), 0.05, 1.0
                )
                nu = beta_true * a + x
            po = pseudo_outcomes(np.where(c == 1, y, np.nan), c, delta, nu)
            betas[rep] = ols_sandwich(po.y_tilde, w, "sandwich").beta[1]
        mc_se = betas.std(ddof=1) / np.sqrt(reps)
        dev = abs(betas.mean() - beta_true)
        ok = ok and dev <= 3 * mc_se
        details.append(f"{tag}: |bias| {dev:.4f} vs 3*MC-SE {3 * mc_se:.4f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300
    report(4, "double-robustness", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_05_fdr_control_desk(desk_bench):
    cfg, res, elapsed, _ = desk_bench
    details, ok = [], True
    for m in (MethodKind.COMPLETE, MethodKind.DR_W, MethodKind.DR_UW):
        vals = res.fdr[(m, ALPHA)]
        mc_se = vals.std(ddof=1) / np.sqrt(len(vals))
        bound = ALPHA + 3 * mc_se
        ok = ok and vals.mean() <= bound
        details.append(f"{m.value} {vals.mean():.4f}<= {bound:.4f}")
    ok = ok and elapsed < 600
    report(5, "fdr-control-desk", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_06_plugin_inflation(desk_bench):
    cfg, res, _, _ = desk_bench
    vals = res.fdr[(MethodKind.PLUGIN, ALPHA)]
    mc_se = vals.std(ddof=1) / np.sqrt(len(vals))
    excess = vals.mean() - ALPHA
    ok = excess >= 3 * mc_se
    report(6, "plugin-fdr-inflation", ok,
           f"plugin FDR {vals.mean():.3f}, excess {excess:.3f} vs 3*MC-SE {3 * mc_se:.3f}")


def test_07_efficiency_ordering(desk_bench):
    cfg, res, _, _ = desk_bench
    tpr_uw = res.tpr[(MethodKind.DR_UW, ALPHA)]
    tpr_w = res.tpr[(MethodKind.DR_W, ALPHA)]
    tpr_c = res.tpr[(MethodKind.COMPLETE, ALPHA)]
    mc_se = max(
        tpr_uw.std(ddof=1), tpr_w.std(ddof=1), tpr_c.std(ddof=1)
    ) / np.sqrt(len(tpr_uw))
    floor = max(tpr_w.mean(), tpr_c.mean()) - 2 * mc_se
    var_w = np.nanvar(res.betas[MethodKind.DR_W], axis=0, ddof=1).mean()
    var_uw = np.nanvar(res.betas[MethodKind.DR_UW], axis=0, ddof=1).mean()
    ok = tpr_uw.mean() >= floor and var_uw <= 1.05 * var_w
    report(7, "efficiency-ordering", ok,
           f"TPR uw {tpr_uw.mean():.3f} >= {floor:.3f}; var ratio {var_uw / var_w:.4f} <= 1.05")


def test_08_toy_power_curve(toy_rows):
    grid, rows, elapsed, _ = toy_rows
    by = {(r["method"], r["rho"]): r for r in rows}
    ok = True
    for lo, hi in zip(grid[:-1], grid[1:]):
        a, b = by[("uw", lo)], by[("uw", hi)]
        wiggle = 2 * np.hypot(a["mc_se"], b["mc_se"])
        ok = ok and b["power"] >= a["power"] - wiggle
    gap = by[("uw", 0.9)]["power"] - by[("w", 0.9)]["power"]
    ok = ok and gap >= 0.05 and elapsed < 120
    report(8, "toy-power-curve", ok, f"gap@0.9 {gap:.3f}, {elapsed:.1f}s")


def test_09_bh_stepup_fuzz():
    t0 = time.monotonic()
    rng = np.random.default_rng(9)
    mismatches = 0
    for _ in range(10_000):
        m = int(rng.integers(1, 51))
        p = rng.random(m)
        if rng.random() < 0.5:
            p **= 3
        alpha = float(rng.choice([0.01, 0.05, 0.1, 0.2]))
        sel = np.zeros(m, dtype=bool)
        sel[select(bh_qvalues(p), alpha)] = True
        order = np.argsort(p, kind="stable")
        k_star = 0
        for k in range(1, m + 1):
            if p[order[k - 1]] <= alpha * k / m:
                k_star = k
        stepup = np.zeros(m, dtype=bool)
        stepup[order[:k_star]] = True
        mismatches += int(not np.array_equal(sel, stepup))
    elapsed = time.monotonic() - t0
    report(9, "bh-equals-stepup", mismatches == 0,
           f"{mismatches} mismatches / 10000, {elapsed:.1f}s")


def _held_out_mse(n, rep, seed=10):
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, rep]))
    p = 60
    a = np.zeros(n)
    a[rng.permutation(n)[: n // 2]] = 1.0
    x = rng.uniform(size=n)
    load = rng.normal(size=(p, 2))
    fac = 2.0 * rng.normal(size=(n, 2))
    s = np.zeros(p)
    s[rng.permutation(p)[:6]] = 1.0
    y = (0.4 * np.outer(a, s) + x[:, None] + fac @ load.T
         + 0.5 * rng.normal(size=(n, p)))
    mask = (rng.random((n, p)) >= 0.3).astype(np.int8)
    obs_idx = np.argwhere(mask == 1)
    held = obs_idx[rng.permutation(len(obs_idx))[: len(obs_idx) // 10]]
    mask2 = mask.copy()
    mask2[held[:, 0], held[:, 1]] = 0
    w = np.column_stack([np.ones(n), a, x])
    d = Dataset(
        y_obs=np.where(mask2 == 1, y, np.nan), mask=mask2, w=w,
        peptide_ids=tuple(f"p{j}" for j in range(p)),
        sample_ids=tuple(str(i) for i in range(n)),
        covariate_names=("intercept", "a", "x"),
    )
    nu = impute_soft(d, ImputerConfig(backend="soft", rank_penalty=5.0, max_rank=4)).nu_hat
    return float(np.mean((nu[held[:, 0], held[:, 1]] - y[held[:, 0], held[:, 1]]) ** 2))


def test_10_soft_impute_mse_trend():
    t0 = time.monotonic()
    medians = [
        float(np.median([_held_out_mse(n, rep) for rep in range(20)]))
        for n in (100, 200, 400)
    ]
    elapsed = time.monotonic() - t0
    ok = medians[0] > medians[1] > medians[2] and elapsed < 300
    report(10, "soft-impute-mse-trend", ok,
           f"medians {[round(m, 4) for m in medians]}, {elapsed:.1f}s")


def test_11_determinism_across_threads(desk_bench, toy_rows, tmp_path):
    cfg, _, _, bench_path = desk_bench
    _, _, _, toy_path = toy_rows
    res2 = run_benchmark(cfg, DESK_METHODS, inf_cfg=DESK_INF, threads=4)
    bench2 = tmp_path / "desk_rerun.csv"
    res2.to_csv(bench2)
    grid = np.round(np.arange(0.1, 1.0001, 0.1), 10)
    rows2 = toy_power_experiment(grid, n=200, beta=0.2, delta=0.7, reps=5000, seed=0)
    toy2 = tmp_path / "toy_rerun.csv"
    toy_power_to_csv(rows2, toy2)
    same_bench = bench_path.read_bytes() == bench2.read_bytes()
    same_toy = toy_path.read_bytes() == toy2.read_bytes()
    report(11, "byte-identical-reruns", same_bench and same_toy,
           f"benchmark identical: {same_bench}; toy power identical: {same_toy}")
