import tracemalloc
import warnings

import numpy as np
import pytest

from drpi import dr_inference, imputers, propensity, sim_bench
from drpi.data_model import MethodKind, load_dataset, write_dataset
from drpi.dr_inference import InferenceConfig
from drpi.errors import DataError
from drpi.imputers import ImputerConfig
from drpi.sim_bench import (
    SimConfig,
    fdr_tpr,
    gen_dataset,
    load_cov_csv,
    mar_missing_prob,
    run_benchmark,
    toy_power_experiment,
)


# ------------------------------------------------------------- generators


def ar1_cov(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    return (rho ** idx)[np.abs(idx[:, None] - idx[None, :])]


def ar1_cholesky(p: int, rho: float) -> np.ndarray:
    """Closed-form Cholesky factor of ``ar1_cov(p, rho)``: L[i, 0] = rho^i and
    L[i, j] = rho^(i-j) sqrt(1 - rho^2) for 0 < j <= i."""
    idx = np.arange(p)
    lag = idx[:, None] - idx[None, :]
    low = np.tril(rho ** np.maximum(lag, 0))
    low[:, 1:] *= np.sqrt(1.0 - rho * rho)
    return low


def gen_noise(n, p, cov, skewed=False, rng=None):
    """n correlated noise rows with covariance ``cov``, as gen_dataset draws
    them from a ``cov_csv`` covariance."""
    return sim_bench._draw_noise(n, p, sim_bench._cholesky_spd(cov), None, skewed, rng)


def write_cov_csv(path, cov):
    with open(path, "w", encoding="utf-8") as fh:
        for row in cov:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def test_ar1_cov_entries():
    cov = ar1_cov(4, 0.5)
    np.testing.assert_allclose(cov[0], [1.0, 0.5, 0.25, 0.125])
    np.testing.assert_allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_ar1_cov_gathers_the_powers_bitwise():
    idx = np.arange(50)
    for rho in (0.5, -0.7, 0.93):
        want = rho ** np.abs(idx[:, None] - idx[None, :])
        np.testing.assert_array_equal(ar1_cov(50, rho), want)


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.95])
def test_ar1_noise_is_the_closed_form_cholesky_product(rho):
    """The recursion draws z @ L.T for the unjittered AR(1) factor L, from
    the same standard-normal draw, and hands back a C-contiguous array."""
    n, p = 40, 120
    low = ar1_cholesky(p, rho)
    np.testing.assert_allclose(low @ low.T, ar1_cov(p, rho), atol=1e-12)
    z = np.random.default_rng(3).standard_normal((n, p))
    eps = sim_bench._draw_noise(n, p, None, rho, False, np.random.default_rng(3))
    np.testing.assert_allclose(eps, z @ low.T, rtol=0, atol=1e-12)
    assert eps.flags.c_contiguous


@pytest.mark.parametrize("model", [1, 2, 3, 4])
def test_gen_dataset_moves_only_the_noise_from_the_dense_draw(model):
    """Against the jittered Cholesky draw AR(1) noise used to take, the
    recursion leaves the random stream in place: mask, a, x and the signal
    set are bitwise equal, and y_full moves by the jitter's effect alone."""
    cfg = SimConfig(model=model, n=120, p=200, seed=9)
    dense = sim_bench._cholesky_spd(ar1_cov(cfg.p, cfg.noise_rho))
    for rep in (0, 1):
        d, truth = gen_dataset(cfg, rep)
        d_ref, ref = gen_dataset(cfg, rep, chol=dense)
        np.testing.assert_array_equal(d.mask, d_ref.mask)
        np.testing.assert_array_equal(truth.a, ref.a)
        np.testing.assert_array_equal(truth.x, ref.x)
        np.testing.assert_array_equal(truth.signal_set, ref.signal_set)
        np.testing.assert_allclose(truth.y_full, ref.y_full, rtol=0, atol=1e-6)
        assert truth.y_full.flags.c_contiguous and d.y_obs.flags.c_contiguous


@pytest.mark.parametrize("threads", [0, 3])
def test_ar1_noise_is_never_factored(threads, monkeypatch):
    def refuse(cov):
        raise AssertionError("an AR(1) config factored a covariance")

    monkeypatch.setattr(sim_bench, "_cholesky_spd", refuse)
    cfg = SimConfig(model=4, n=60, p=30, seed=5, reps=3)
    gen_dataset(cfg, rep=1)
    inf = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    res = run_benchmark(cfg, (MethodKind.DR_UW,), inf_cfg=inf, threads=threads)
    assert res.failed_reps == []


def _traced_peak(fn, *args):
    """Bytes allocated at the peak of ``fn(*args)`` above what was live
    before the call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_wide_gen_dataset_memory_is_linear_in_p():
    """At 200 x 4000 a (p, p) covariance alone would be 128 MB; the AR(1)
    draw holds a few (n, p) arrays (6.4 MB each)."""
    assert _traced_peak(gen_dataset, SimConfig(model=3, n=200, p=4000, seed=1)) < 64 * 2**20


def test_wide_load_dataset_memory_is_bounded(tmp_path):
    """A 200 x 4000 outcome CSV has 800k cells. Held as Python strings all
    at once they would take about 45 MB; read a block of rows at a time,
    the load holds little more than its (n, p) float arrays (6.4 MB each)."""
    y, w = tmp_path / "y.csv", tmp_path / "w.csv"
    write_dataset(gen_dataset(SimConfig(model=3, n=200, p=4000, seed=1))[0], y, w)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-missing columns
        assert _traced_peak(load_dataset, y, w) < 24 * 2**20


def test_noise_empirical_correlation():
    rng = np.random.default_rng(0)
    eps = gen_noise(20000, 3, ar1_cov(3, 0.5), rng=rng)
    emp = np.corrcoef(eps.T)
    assert emp[0, 1] == pytest.approx(0.5, abs=0.02)
    assert emp[0, 2] == pytest.approx(0.25, abs=0.02)


def test_skewed_noise_min_and_center():
    rng = np.random.default_rng(1)
    eps = gen_noise(500, 4, ar1_cov(4, 0.3), skewed=True, rng=rng)
    # recentered per column after the shift-log transform
    np.testing.assert_allclose(eps.mean(axis=0), 0.0, atol=1e-12)
    # log of a variable with min 0.1 -> heavy left tail, negative skew
    centered = eps - eps.mean(axis=0)
    skew = (centered**3).mean(axis=0) / (centered**2).mean(axis=0) ** 1.5
    assert (skew < 0).all()


def test_mar_missing_prob_values():
    assert mar_missing_prob(np.array([0.0]))[0] == pytest.approx(0.25)
    x = np.array([1.0])
    assert mar_missing_prob(x)[0] == pytest.approx(np.exp(1) / (2 * (1 + np.exp(1))))
    assert (mar_missing_prob(np.linspace(-5, 5, 50)) < 0.5).all()


def test_gen_dataset_signal_counts_and_shapes():
    cfg = SimConfig(model=3, n=100, p=50, seed=3, reps=1)
    d, truth = gen_dataset(cfg, rep=0)
    assert d.n == 100 and d.p == 50
    assert len(truth.signal_set) == 5  # 0.1 * 50
    assert truth.a.sum() == 50  # round(n/2) ones
    assert d.covariate_names == ("intercept", "a", "x")
    assert truth.beta_a == pytest.approx(0.4)  # n <= 200 default
    # y at signal columns for a=1 rows has the shifted mean
    j = truth.signal_set[0]
    shift = truth.y_full[truth.a == 1, j].mean() - truth.y_full[truth.a == 0, j].mean()
    assert shift == pytest.approx(0.4, abs=0.5)


def test_gen_dataset_model1_has_no_x_column():
    cfg = SimConfig(model=1, n=50, p=10, seed=4)
    d, _ = gen_dataset(cfg, rep=0)
    assert d.covariate_names == ("intercept", "a")


def test_signal_defaults_by_n():
    assert SimConfig(model=3, n=200).effective_signal() == 0.4
    assert SimConfig(model=3, n=201).effective_signal() == 0.3
    assert SimConfig(model=4, n=200).effective_signal() == 0.12
    assert SimConfig(model=4, n=500).effective_signal() == 0.08
    assert SimConfig(model=2, n=100, signal_c=1.5).effective_signal() == 1.5


def test_mcar_rate_close_to_nominal():
    cfg = SimConfig(model=2, n=200, p=100, mcar_prob=0.3, seed=5)
    d, _ = gen_dataset(cfg, rep=0)
    miss = 1.0 - d.mask.mean()
    assert miss == pytest.approx(0.3, abs=0.02)


def test_mar_rate_near_quarter():
    cfg = SimConfig(model=3, n=400, p=100, seed=6)
    d, truth = gen_dataset(cfg, rep=0)
    miss = 1.0 - d.mask.mean()
    expected = mar_missing_prob(truth.x).mean()
    assert miss == pytest.approx(expected, abs=0.02)
    assert 0.2 < miss < 0.35


def test_gen_dataset_deterministic_per_rep():
    cfg = SimConfig(model=3, n=50, p=20, seed=7)
    d1, t1 = gen_dataset(cfg, rep=3)
    d2, t2 = gen_dataset(cfg, rep=3)
    np.testing.assert_array_equal(d1.mask, d2.mask)
    np.testing.assert_array_equal(t1.y_full, t2.y_full)
    d3, _ = gen_dataset(cfg, rep=4)
    assert not np.array_equal(d1.mask, d3.mask)


def test_cov_csv_round_trip(tmp_path):
    cov = ar1_cov(3, 0.4)
    path = write_cov_csv(tmp_path / "cov.csv", cov)
    np.testing.assert_allclose(load_cov_csv(path), cov)
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(DataError):
        load_cov_csv(bad)


def test_config_validation():
    with pytest.raises(DataError):
        SimConfig(model=5)
    with pytest.raises(DataError):
        SimConfig(signal_frac=1.5)
    with pytest.raises(DataError):
        SimConfig(noise_rho=1.0)
    with pytest.raises(DataError, match=r"mcar_prob must be in \[0, 1\)"):
        SimConfig(mcar_prob=1.0)
    with pytest.raises(DataError, match="reps"):
        SimConfig(reps=0)
    with pytest.raises(DataError, match="p must be >= 1"):
        SimConfig(p=0)
    for model, n in [(1, 2), (3, 3)]:  # q = 2 in model 1, 3 otherwise
        with pytest.raises(DataError, match="need n > q"):
            SimConfig(model=model, n=n)
    SimConfig(model=1, n=3)
    for cutoffs in [(0.05, 0.0), (float("nan"),)]:
        with pytest.raises(DataError, match="alpha"):
            SimConfig(cutoffs=cutoffs)


# ------------------------------------------------------------- scoring


def test_fdr_tpr_hand_cases():
    # selected {0,1,2}, signal {1,2,3}: one false of three -> FDR 1/3, TPR 2/3
    f, t = fdr_tpr(np.array([0, 1, 2]), np.array([1, 2, 3]))
    assert f == pytest.approx(1 / 3)
    assert t == pytest.approx(2 / 3)
    f, t = fdr_tpr(np.array([], dtype=int), np.array([1]))
    assert f == 0.0 and t == 0.0


# ------------------------------------------------------------- benchmark


def small_bench(threads=0, seed=11):
    cfg = SimConfig(model=3, n=60, p=30, seed=seed, reps=4)
    inf = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    return run_benchmark(
        cfg, (MethodKind.COMPLETE, MethodKind.DR_UW), inf_cfg=inf, threads=threads
    )


def test_benchmark_shapes_and_summary():
    res = small_bench()
    key = (MethodKind.DR_UW, 0.05)
    assert res.fdr[key].shape == (4,)
    assert res.betas[MethodKind.DR_UW].shape == (4, 30)
    rows = res.summary()
    assert len(rows) == 2 * 1 * 2  # methods x cutoffs x metrics
    for row in rows:
        assert 0.0 <= row["value"] <= 1.0 or np.isnan(row["value"])


def test_benchmark_thread_identical(tmp_path):
    r1 = small_bench(threads=0)
    r2 = small_bench(threads=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.to_csv(p1)
    r2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    for key in r1.fdr:
        np.testing.assert_array_equal(r1.fdr[key], r2.fdr[key])


@pytest.mark.parametrize("threads", [0, 3])
def test_benchmark_factors_the_noise_covariance_once(threads, monkeypatch, tmp_path):
    """run_benchmark factors a cov_csv covariance once and shares it across
    repetitions, with results bitwise equal to a fresh gen_dataset per rep."""
    calls = []
    factor = sim_bench._cholesky_spd
    monkeypatch.setattr(sim_bench, "_cholesky_spd", lambda cov: calls.append(1) or factor(cov))
    path = write_cov_csv(tmp_path / "cov.csv", ar1_cov(30, 0.5))
    cfg = SimConfig(model=4, n=60, p=30, seed=5, reps=3, cov_csv=str(path))
    inf = InferenceConfig(target="a", imputer=ImputerConfig(backend="knn"))
    methods = (MethodKind.COMPLETE, MethodKind.DR_UW)
    res = run_benchmark(cfg, methods, inf_cfg=inf, threads=threads)
    assert len(calls) == 1
    for rep in range(cfg.reps):
        out = sim_bench._run_rep(cfg, rep, methods, inf)  # factors afresh
        for m in methods:
            np.testing.assert_array_equal(res.betas[m][rep], out[m][1])
            np.testing.assert_array_equal(res.fdr[(m, 0.05)][rep], out[m][0][0.05][0])
    assert len(calls) == 1 + cfg.reps


def test_one_repetition_fits_each_nuisance_once(monkeypatch):
    """All six methods share one knn fit, one lowdim fit (dr_w's nu) and
    one batched propensity fit: a nuisance passed on is never refit."""
    calls = []
    impute, fit = imputers.impute, propensity.fit_logistic_columns
    monkeypatch.setattr(imputers, "impute",
                        lambda d, cfg, *a: calls.append(cfg.backend) or impute(d, cfg, *a))
    monkeypatch.setattr(propensity, "fit_logistic_columns",
                        lambda *a, **k: calls.append("propensity") or fit(*a, **k))
    cfg = SimConfig(model=3, n=60, p=20, seed=1, reps=1)
    inf = InferenceConfig(target="a", imputer=ImputerConfig(backend="knn", k_neighbors=5))
    res = run_benchmark(cfg, tuple(MethodKind), inf_cfg=inf)
    assert res.failed_reps == []
    assert calls == ["knn", "lowdim", "propensity"]


def test_one_repetition_fits_all_six_methods_in_three_least_squares_passes(monkeypatch):
    """The six estimators form three fit groups (W with the homoskedastic
    variance, W with the sandwich, complete-case), each one batched fit."""
    shapes = []
    ols = dr_inference._ols_columns
    monkeypatch.setattr(dr_inference, "_ols_columns",
                        lambda w, y, *a: shapes.append(y.shape) or ols(w, y, *a))
    cfg = SimConfig(model=3, n=60, p=20, seed=1, reps=1)
    inf = InferenceConfig(target="a", imputer=ImputerConfig(backend="knn", k_neighbors=5))
    res = run_benchmark(cfg, tuple(MethodKind), inf_cfg=inf)
    assert res.failed_reps == []
    assert sorted(shapes) == [(60, 20), (60, 40), (60, 60)]


def test_failed_reps_recorded_for_any_thread_count(monkeypatch):
    """A repetition that raises is recorded with its reason, in order, by
    serial and threaded runs alike."""
    def fail(cfg, rep, *rest):
        raise DataError(f"repetition {rep} fails")

    monkeypatch.setattr(sim_bench, "_run_rep", fail)
    cfg = SimConfig(model=3, n=60, p=5, seed=1, reps=3)
    inf = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    serial = run_benchmark(cfg, (MethodKind.DR_UW,), inf_cfg=inf, threads=0)
    threaded = run_benchmark(cfg, (MethodKind.DR_UW,), inf_cfg=inf, threads=2)
    assert serial.failed_reps == [(rep, f"repetition {rep} fails") for rep in range(3)]
    assert threaded.failed_reps == serial.failed_reps


@pytest.mark.parametrize("cov,reason", [
    ("1,2\n2,1\n", "covariance not SPD"),
    ("1,0,0\n0,1,0\n0,0,1\n", "need p=2"),
], ids=["not_spd", "wrong_size"])
def test_unusable_covariance_refused_before_any_repetition(cov, reason, tmp_path, monkeypatch):
    """A covariance that cannot be used would fail every repetition alike,
    so it is refused before the first."""
    path = tmp_path / "cov.csv"
    path.write_text(cov)
    cfg = SimConfig(model=3, n=40, p=2, seed=1, reps=2, cov_csv=str(path))
    inf = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    monkeypatch.setattr(sim_bench, "_run_rep", lambda *a: pytest.fail("a repetition ran"))
    with pytest.raises(DataError, match=reason):
        run_benchmark(cfg, (MethodKind.DR_UW,), inf_cfg=inf, threads=2)


def test_repeated_method_or_cutoff_refused_by_name(monkeypatch):
    """A method or cutoff given twice would count each repetition twice in
    its FDR, TPR and betas, so it is refused before any repetition runs."""
    monkeypatch.setattr(sim_bench, "_run_rep", lambda *a: pytest.fail("a repetition ran"))
    with pytest.raises(DataError, match="cutoff 0.05 given more than once"):
        SimConfig(model=3, n=200, p=120, reps=5, seed=2, cutoffs=(0.05, 0.05))
    cfg = SimConfig(model=3, n=200, p=120, reps=5, seed=2)
    with pytest.raises(DataError, match="method 'dr_w' given more than once"):
        run_benchmark(cfg, (MethodKind.DR_W, MethodKind.DR_W))


@pytest.mark.parametrize("imputer", [
    ImputerConfig(backend="knn", k_neighbors=20),
    ImputerConfig(backend="knn2", k_neighbors=25),
    ImputerConfig(backend="soft", max_rank=21),
])
def test_imputer_size_above_the_shape_is_a_cap(imputer):
    """A neighbour count or rank cap above p = 20 fails no repetition."""
    cfg = SimConfig(model=3, n=60, p=20, seed=1, reps=2)
    inf = InferenceConfig(target="a", imputer=imputer)
    res = run_benchmark(cfg, (MethodKind.COMPLETE, MethodKind.DR_UW), inf_cfg=inf)
    assert res.failed_reps == []
    assert np.isfinite(res.betas[MethodKind.DR_UW]).all()


def test_summary_of_no_repetitions_is_nan_without_warnings():
    res = sim_bench.BenchResult(
        cfg=SimConfig(), methods=(MethodKind.DR_UW,), cutoffs=(0.05,),
        fdr={(MethodKind.DR_UW, 0.05): np.array([])},
        tpr={(MethodKind.DR_UW, 0.05): np.array([])},
        betas={MethodKind.DR_UW: np.array([])}, failed_reps=[(0, "why")],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = res.summary()
    assert [r["metric"] for r in rows] == ["fdr", "tpr"]
    assert all(np.isnan(r["value"]) and np.isnan(r["mc_se"]) for r in rows)


def test_benchmark_full_method_zero_fdr_high_tpr():
    cfg = SimConfig(model=2, n=150, p=40, seed=12, reps=3, signal_c=2.0)
    inf = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    res = run_benchmark(cfg, (MethodKind.FULL,), inf_cfg=inf)
    key = (MethodKind.FULL, 0.05)
    assert res.tpr[key].mean() > 0.9  # strong signal, full data
    assert res.fdr[key].mean() < 0.2


# ------------------------------------------------------------- toy power


def test_toy_power_rows_and_determinism():
    rows1 = toy_power_experiment([0.0, 0.5], n=50, reps=300, seed=1)
    rows2 = toy_power_experiment([0.0, 0.5], n=50, reps=300, seed=1)
    assert rows1 == rows2
    assert {r["method"] for r in rows1} == {"w", "uw"}
    assert len(rows1) == 4


def test_toy_power_equal_at_rho_zero():
    rows = toy_power_experiment([0.0], n=100, reps=2000, seed=2)
    by = {r["method"]: r for r in rows}
    diff = abs(by["uw"]["power"] - by["w"]["power"])
    se = np.hypot(by["uw"]["mc_se"], by["w"]["mc_se"])
    assert diff <= 3 * se + 0.01


def test_toy_power_uw_gains_at_high_rho():
    rows = toy_power_experiment([0.9], n=200, reps=2000, seed=3)
    by = {r["method"]: r for r in rows}
    assert by["uw"]["power"] - by["w"]["power"] >= 0.05


def test_toy_power_rejects_bad_rho():
    with pytest.raises(DataError):
        toy_power_experiment([1.5], reps=10)


def test_toy_power_rejects_bad_alpha():
    with pytest.raises(DataError, match="alpha"):
        toy_power_experiment([0.5], reps=10, alpha=1.5)


def test_toy_power_leaves_out_repetitions_without_a_test():
    """At n = 2 about 9% of repetitions observe no sample; their W
    pseudo-outcome is beta*W, whose se is 0 or rounding noise.  They are
    left out of the power and its MC-SE, not counted as rejections, and
    with none left both are NaN, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = toy_power_experiment([0.0, 0.5], n=2, reps=200, seed=0)
        empty = toy_power_experiment([0.0, 0.5], n=2, delta=1e-9, reps=20, seed=0)
    for row in rows:
        kept = row["power"] * (1 - row["power"]) / row["mc_se"] ** 2
        assert 150 < round(kept) < 200  # the repetitions with an observed sample
        assert kept == pytest.approx(round(kept), rel=1e-9)
    assert all(np.isnan(row["power"]) and np.isnan(row["mc_se"]) for row in empty)
