import warnings

import numpy as np
import pytest
from scipy import special, stats

from drpi.data_model import MethodKind, SkipRecord
from drpi.dr_inference import (
    _METHODS,
    VARIANCE_MODES,
    InferenceConfig,
    _p_values,
    infer_all,
    infer_columns,
    ols_sandwich,
    pseudo_outcomes,
)
from drpi.errors import DataError
from drpi.imputers import ImputedMatrix, ImputerConfig, impute, impute_lowdim
from drpi.propensity import fit_logistic_columns
from drpi.sim_bench import SimConfig, gen_dataset
from tests.test_data_model import make_dataset


# ------------------------------------------------------ pseudo-outcomes


def test_pseudo_outcome_hand_values():
    # observed y=3, nu=1, delta=0.5 -> 1 + 2*(3-1) = 5
    # missing, nu=1.5 -> 1.5
    # observed y=2, nu=2, delta=1 -> 2
    y = np.array([3.0, np.nan, 2.0])
    c = np.array([1.0, 0.0, 1.0])
    delta = np.array([0.5, 0.5, 1.0])
    nu = np.array([1.0, 1.5, 2.0])
    po = pseudo_outcomes(y, c, delta, nu)
    np.testing.assert_allclose(po.y_tilde, [5.0, 1.5, 2.0])
    np.testing.assert_allclose(po.weights_used, [2.0, 0.0, 1.0])


def test_pseudo_outcome_never_reads_masked_y():
    y = np.array([3.0, 1e300, 2.0])
    c = np.array([1.0, 0.0, 1.0])
    delta = np.full(3, 0.8)
    nu = np.zeros(3)
    po = pseudo_outcomes(y, c, delta, nu)
    assert po.y_tilde[1] == 0.0


def test_pseudo_outcome_unbiased_given_truth():
    """E[y_tilde | y] = y when delta is the true propensity."""
    rng = np.random.default_rng(0)
    n = 200_00
    y = rng.normal(2.0, 1.0, size=n)
    delta = np.full(n, 0.7)
    c = (rng.random(n) < delta).astype(float)
    nu = np.full(n, 0.5)  # deliberately biased conditional mean
    po = pseudo_outcomes(np.where(c == 1, y, np.nan), c, delta, nu)
    assert po.y_tilde.mean() == pytest.approx(2.0, abs=4 * 1.5 / np.sqrt(n))


def test_pseudo_outcome_rejects_bad_delta():
    y = np.array([1.0])
    c = np.array([1.0])
    nu = np.array([0.0])
    with pytest.raises(DataError):
        pseudo_outcomes(y, c, np.array([0.0]), nu)
    with pytest.raises(DataError):
        pseudo_outcomes(y, c, np.array([1.5]), nu)


# ------------------------------------------------------ OLS + sandwich


def test_ols_three_point_line():
    # y = 2x + 1 exactly: beta=(1,2), residuals 0, degenerate se
    x = np.array([0.0, 1.0, 2.0])
    w = np.column_stack([np.ones(3), x])
    fit = ols_sandwich(2 * x + 1, w)
    np.testing.assert_allclose(fit.beta, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(fit.cov, 0.0, atol=1e-20)


def test_sandwich_longhand_four_points():
    """Four-point longhand oracle computed with explicit loops."""
    w = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 4.0]])
    y = np.array([0.5, 1.0, 3.0, 2.5])
    n, q = w.shape

    gram = np.zeros((q, q))
    xty = np.zeros(q)
    for i in range(n):
        for a in range(q):
            xty[a] += w[i, a] * y[i]
            for b in range(q):
                gram[a, b] += w[i, a] * w[i, b]
    gram_inv = np.linalg.inv(gram)
    beta = gram_inv @ xty
    meat = np.zeros((q, q))
    for i in range(n):
        r = y[i] - w[i] @ beta
        for a in range(q):
            for b in range(q):
                meat[a, b] += r * r * w[i, a] * w[i, b] / n
    bread = gram_inv * n
    cov = bread @ meat @ bread / n

    fit = ols_sandwich(y, w, "sandwich")
    np.testing.assert_allclose(fit.beta, beta, atol=1e-12)
    np.testing.assert_allclose(fit.cov, cov, atol=1e-12)


def test_homoskedastic_matches_textbook():
    rng = np.random.default_rng(1)
    n = 30
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = w @ np.array([1.0, -2.0]) + rng.normal(size=n)
    fit = ols_sandwich(y, w, "homoskedastic")
    beta = np.linalg.lstsq(w, y, rcond=None)[0]
    resid = y - w @ beta
    cov = (resid @ resid) / (n - 2) * np.linalg.inv(w.T @ w)
    np.testing.assert_allclose(fit.beta, beta, atol=1e-10)
    np.testing.assert_allclose(fit.cov, cov, atol=1e-10)


def test_ols_rejects_underdetermined():
    w = np.ones((2, 2))
    with pytest.raises((DataError, Exception)):
        ols_sandwich(np.array([1.0, 2.0]), w)


# ------------------------------------------------------ collapse invariant


def test_dr_collapses_to_full_when_all_observed():
    """With no missing cells all six estimators give identical beta/p."""
    rng = np.random.default_rng(2)
    n, p = 40, 6
    a = rng.integers(0, 2, size=n).astype(float)
    w = np.column_stack([np.ones(n), a])
    y = np.outer(a, rng.normal(size=p)) + rng.normal(size=(n, p))
    mask = np.ones((n, p), dtype=np.int8)
    d = make_dataset(y, mask, w, covariate_names=("intercept", "a"))
    cfg = InferenceConfig(
        target="a", variance_mode="sandwich", imputer=ImputerConfig(backend="lowdim")
    )

    ref, _ = infer_all(d, MethodKind.FULL, cfg, oracle=y)
    for method in (
        MethodKind.COMPLETE,
        MethodKind.PLUGIN_MISSING,
        MethodKind.DR_W,
        MethodKind.DR_UW,
    ):
        res, skips = infer_all(d, method, cfg)
        assert not skips
        for r0, r1 in zip(ref, res):
            assert r1.beta == pytest.approx(r0.beta, abs=1e-10)
            assert r1.p_value == pytest.approx(r0.p_value, abs=1e-10)


# ------------------------------------------------------ null calibration


def test_null_rejection_rate_near_level():
    """DR-UW p-values under the global null reject at ~5%."""
    rng = np.random.default_rng(3)
    n, p = 300, 200
    a = (np.arange(n) < n // 2).astype(float)
    x = rng.uniform(size=n)
    w = np.column_stack([np.ones(n), a, x])
    y = rng.normal(size=(n, p))
    mask = (rng.random((n, p)) > 0.3).astype(np.int8)
    d = make_dataset(y, mask, w, covariate_names=("intercept", "a", "x"))
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    res, _ = infer_all(d, MethodKind.DR_UW, cfg)
    rate = np.mean([r.p_value < 0.05 for r in res])
    # columns are independent here: binomial(200, .05) 4-sigma band
    assert abs(rate - 0.05) < 4 * np.sqrt(0.05 * 0.95 / p)


def test_p_values_match_normal_reference():
    rng = np.random.default_rng(4)
    n = 50
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.normal(size=n)
    fit = ols_sandwich(y, w, "sandwich")
    se = np.sqrt(fit.cov[1, 1])
    z = fit.beta[1] / se
    expected = 2 * stats.norm.sf(abs(z))
    mask = np.ones((n, 1), dtype=np.int8)
    d = make_dataset(y.reshape(-1, 1), mask, w)
    cfg = InferenceConfig(target=d.covariate_names[1], variance_mode="sandwich")
    (out,), skips = infer_all(d, MethodKind.COMPLETE, cfg)
    assert not skips
    assert out.p_value == pytest.approx(expected, abs=1e-12)


def test_normal_p_values_match_ndtr_to_rounding():
    """erfc(|z| / sqrt 2) is 2 * ndtr(-|z|) within 1e-12 relative, out to
    |z| = 37 where p is about 1e-299; NaN stays NaN."""
    z = np.concatenate([
        [0.0, 1e-300, -1e-300, np.inf, -np.inf],
        np.linspace(-37.0, 37.0, 20001),
        np.geomspace(1e-12, 37.0, 2001),
    ])
    got_z, p, degenerate = _p_values(z, np.ones_like(z), "sandwich", None)
    assert not degenerate.any()
    np.testing.assert_array_equal(got_z, z)
    np.testing.assert_allclose(p, 2.0 * special.ndtr(-np.abs(z)), rtol=1e-12, atol=0)
    assert np.isnan(_p_values(np.array([np.nan]), np.array([1.0]), "sandwich", None)[1]).all()


def test_student_t_p_values_are_scipy_t_sf():
    rng = np.random.default_rng(8)
    z = np.concatenate([[0.0, 1e-300, 37.0, np.inf], rng.normal(scale=4.0, size=500)])
    df = np.resize([1, 2, 5, 27, 197], z.size)
    _, p, _ = _p_values(z, np.ones_like(z), "homoskedastic", df)
    np.testing.assert_array_equal(p, 2.0 * stats.t.sf(np.abs(z), df))


@pytest.mark.parametrize("mode", ["sandwich", "homoskedastic"])
def test_degenerate_se_p_values(mode):
    """A zero or NaN se flags the column degenerate: z = +-inf and p = 0,
    or z = 0 and p = 1 when beta is 0."""
    beta = np.array([2.0, -2.0, 0.0, 3.0])
    se = np.array([0.0, 0.0, 0.0, np.nan])
    with np.errstate(invalid="ignore"):
        z, p, degenerate = _p_values(beta, se, mode, np.full(4, 10))
    np.testing.assert_array_equal(z, [np.inf, -np.inf, 0.0, np.inf])
    np.testing.assert_array_equal(p, [0.0, 0.0, 1.0, 0.0])
    assert degenerate.all()


@pytest.mark.parametrize("se", [0.0, 1.5])
def test_zero_beta_p_values_raise_no_warning(se):
    """beta = 0 gives z = 0 and p = 1 when degenerate, without evaluating
    0 * inf for the columns that are not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, p, degenerate = _p_values(np.zeros(1), np.full(1, se), "sandwich", np.full(1, 10))
    assert (z[0], p[0], degenerate[0]) == (0.0, 1.0, se == 0.0)


# ------------------------------------------------------ skips and errors


def test_complete_case_skip_when_rows_short():
    rng = np.random.default_rng(5)
    n = 10
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.normal(size=(n, 2))
    mask = np.ones((n, 2), dtype=np.int8)
    mask[3:, 0] = 0  # 3 observed rows < q+2 = 4
    d = make_dataset(y, mask, w)
    res, skips = infer_all(d, MethodKind.COMPLETE, InferenceConfig(target=d.covariate_names[1]))
    assert len(res) == 1
    assert len(skips) == 1
    assert "q+2" in skips[0].reason


def test_full_requires_oracle():
    rng = np.random.default_rng(6)
    n = 8
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    d = make_dataset(rng.normal(size=(n, 1)), np.ones((n, 1), dtype=np.int8), w)
    with pytest.raises(DataError):
        infer_all(d, MethodKind.FULL, InferenceConfig(target=d.covariate_names[1]))


# ------------------------------------------------------ cross-fitting


def _mar_dataset(rng, n=200, p=5):
    a = rng.integers(0, 2, size=n).astype(float)
    x = rng.uniform(size=n)
    w = np.column_stack([np.ones(n), a, x])
    y = np.outer(a, np.linspace(0, 1, p)) + rng.normal(size=(n, p))
    miss_p = np.exp(x) / (2 * (1 + np.exp(x)))
    mask = (rng.random((n, p)) >= miss_p[:, None]).astype(np.int8)
    return make_dataset(y, mask, w, covariate_names=("intercept", "a", "x"))


def test_cross_fit_runs_and_matches_scale():
    rng = np.random.default_rng(7)
    d = _mar_dataset(rng)
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    res, skips = infer_all(d, MethodKind.DR_UW, cfg, folds=4)
    assert len(res) == d.p and not skips
    plain, _ = infer_all(d, MethodKind.DR_UW, cfg)
    for r_cf, r in zip(res, plain):
        assert abs(r_cf.beta - r.beta) < 6 * max(r.se, r_cf.se)


def test_cross_fit_collapse_no_missing():
    """Fully observed data: cross-fit beta equals the plain OLS beta since
    delta_hat = 1 on every fold and the pseudo-outcome is exactly y."""
    rng = np.random.default_rng(8)
    n, p = 60, 3
    a = rng.integers(0, 2, size=n).astype(float)
    w = np.column_stack([np.ones(n), a])
    y = rng.normal(size=(n, p))
    d = make_dataset(y, np.ones((n, p), dtype=np.int8), w, covariate_names=("intercept", "a"))
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="mean"))
    res, _ = infer_all(d, MethodKind.DR_UW, cfg, folds=3)
    full, _ = infer_all(d, MethodKind.FULL, InferenceConfig(target="a", variance_mode="sandwich"), oracle=y)
    for r_cf, r in zip(res, full):
        assert r_cf.beta == pytest.approx(r.beta, abs=1e-10)


@pytest.mark.parametrize("backend", ["lowdim", "mean"])
def test_cross_fit_skips_a_column_with_too_few_training_rows(backend):
    """lowdim needs more than q observed training rows per fold, so a column
    with q observed cells is skipped; the mean needs one, so a column whose
    single observed cell lies in one fold is skipped.  Neither touches the
    other columns' results."""
    rng = np.random.default_rng(7)
    d = _mar_dataset(rng)
    observed = d.q if backend == "lowdim" else 1
    y = np.column_stack([np.where(d.mask == 1, d.y_obs, 0.0), rng.normal(size=d.n)])
    sparse = np.zeros((d.n, 1), dtype=np.int8)
    sparse[rng.permutation(d.n)[:observed]] = 1
    wider = make_dataset(y, np.hstack([d.mask, sparse]), d.w, covariate_names=d.covariate_names)
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend=backend))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # fold fits skip such columns; they warn nothing
        res, skips = infer_all(wider, MethodKind.DR_UW, cfg, folds=4)
        want, _ = infer_all(d, MethodKind.DR_UW, cfg, folds=4)
    assert [(s.peptide_id, s.reason) for s in skips] == [("p5", "too few observed training rows")]
    assert res == want


def test_cross_fit_preconditions():
    rng = np.random.default_rng(9)
    d = _mar_dataset(rng, n=40)
    cfg = InferenceConfig(target="a")
    with pytest.raises(DataError):
        infer_all(d, MethodKind.PLUGIN, cfg, folds=2)
    with pytest.raises(DataError):
        infer_all(d, MethodKind.DR_UW, cfg, folds=1)
    with pytest.raises(DataError):
        infer_all(d, MethodKind.DR_UW, cfg, folds=20)
    bad = InferenceConfig(target="a", imputer=ImputerConfig(backend="soft"))
    with pytest.raises(DataError):
        infer_all(d, MethodKind.DR_UW, bad, folds=2)
    # cross-fitting fits its own nuisances; passed ones are not ignored
    given = {"nu_hat": impute_lowdim(d), "prop": fit_logistic_columns(d.mask, d.w)}
    for name, nuisance in given.items():
        with pytest.raises(DataError, match="fits its own nuisances"):
            infer_all(d, MethodKind.DR_W, cfg, folds=2, **{name: nuisance})


def _given_nuisance(name, d):
    """(method, keyword arguments) passing one nuisance fitted on p - 1
    columns, or for nu_hat_one_column a single column."""
    short = d.select_columns(list(range(d.p - 1)))
    if name == "nu_hat_one_column":
        return MethodKind.DR_UW, {"nu_hat": ImputedMatrix(np.zeros((d.n, 1)), "x")}
    if name == "nu_hat":
        return MethodKind.DR_UW, {"nu_hat": impute_lowdim(short)}
    if name == "nu_hat_dr_w":
        return MethodKind.DR_W, {"nu_hat": impute_lowdim(short)}
    if name == "prop":
        return MethodKind.DR_UW, {"prop": fit_logistic_columns(short.mask, short.w)}
    return MethodKind.FULL, {"oracle": np.zeros((d.n, d.p - 1))}


@pytest.mark.parametrize("name", ["nu_hat_one_column", "nu_hat", "nu_hat_dr_w", "prop", "oracle"])
def test_mis_shaped_nuisance_raises_data_error(name):
    """A caller's nuisance of the wrong shape is refused by name, not
    broadcast over the columns or left to fail inside numpy."""
    d, _ = gen_dataset(SimConfig(model=3, n=60, p=10, seed=1))
    method, given = _given_nuisance(name, d)
    (arg,) = given
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    with pytest.raises(DataError, match=rf"{arg} has shape \(60, \d+\), expected \(60, 10\)"):
        infer_columns(d, method, cfg, **given)


def test_method_table_has_a_row_for_every_method():
    assert list(_METHODS) == list(MethodKind)
    assert {row.variance for row in _METHODS.values()} <= set(VARIANCE_MODES[1:])


def test_unknown_variance_mode_rejected_at_construction():
    """An unknown mode would fail in every later fit; the config refuses it."""
    with pytest.raises(DataError, match="unknown variance mode 'hc2'"):
        InferenceConfig(variance_mode="hc2")
    for mode in VARIANCE_MODES:
        InferenceConfig(variance_mode=mode)


def test_passed_nu_hat_is_the_methods_own_nu():
    """dr_w takes a passed nu_hat as its nu rather than fitting lowdim, so
    with the same nu and fitted delta it is dr_uw's estimator."""
    d, _ = gen_dataset(SimConfig(model=3, n=80, p=12, seed=2))
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    nu = impute(d, ImputerConfig(backend="mean"))
    dr_w = infer_columns(d, MethodKind.DR_W, cfg, nu_hat=nu)
    dr_uw = infer_columns(d, MethodKind.DR_UW, cfg, nu_hat=nu)
    for a in ("beta", "se", "p_value"):
        np.testing.assert_array_equal(getattr(dr_w, a), getattr(dr_uw, a))
    assert not np.array_equal(dr_w.beta, infer_columns(d, MethodKind.DR_W, cfg).beta)


# ------------------------------------------------------ double robustness


def test_dr_consistent_with_wrong_nu_hat():
    """True propensity + garbage conditional mean still centers on truth."""
    rng = np.random.default_rng(10)
    n = 4000
    a = rng.integers(0, 2, size=n).astype(float)
    w = np.column_stack([np.ones(n), a])
    beta_true = 0.5
    y = beta_true * a + rng.normal(size=n)
    delta = np.full(n, 0.7)
    c = (rng.random(n) < 0.7).astype(float)
    garbage_nu = rng.normal(5.0, 3.0, size=n)
    po = pseudo_outcomes(np.where(c == 1, y, np.nan), c, delta, garbage_nu)
    fit = ols_sandwich(po.y_tilde, w, "sandwich")
    se = np.sqrt(fit.cov[1, 1])
    assert abs(fit.beta[1] - beta_true) < 4 * se


def test_dr_consistent_with_wrong_delta_hat():
    """Oracle conditional mean + miscalibrated propensity still centers."""
    rng = np.random.default_rng(11)
    n = 4000
    a = rng.integers(0, 2, size=n).astype(float)
    w = np.column_stack([np.ones(n), a])
    beta_true = 0.5
    y = beta_true * a + rng.normal(size=n)
    nu_true = beta_true * a
    c = (rng.random(n) < 0.7).astype(float)
    wrong_delta = np.clip(0.7 + rng.uniform(-0.2, 0.2, size=n), 0.01, 1.0)
    po = pseudo_outcomes(np.where(c == 1, y, np.nan), c, wrong_delta, nu_true)
    fit = ols_sandwich(po.y_tilde, w, "sandwich")
    se = np.sqrt(fit.cov[1, 1])
    assert abs(fit.beta[1] - beta_true) < 4 * se
