import warnings

import numpy as np
import pytest
from scipy import special, stats

from drpi import imputers, propensity
from drpi.data_model import MethodKind
from drpi.dr_inference import (
    _METHODS,
    VARIANCE_MODES,
    InferenceConfig,
    _p_values,
    infer_columns,
    infer_methods,
    ols_sandwich,
    pseudo_outcomes,
)
from drpi.errors import DataError, NumericalError
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


def test_pseudo_outcome_refuses_non_finite_nu_at_a_masked_cell():
    with pytest.raises(DataError, match="non-finite observed outcome or nu_hat"):
        pseudo_outcomes([1.0, np.nan], [1, 0], 0.5, [0.0, np.inf])


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


def test_pseudo_outcome_rejects_nan_delta():
    """NaN compares false with both bounds, so it must fail the range check
    instead of passing it."""
    with pytest.raises(DataError, match=r"delta_hat entries must lie in \(0, 1\]"):
        pseudo_outcomes([1.0, 2.0, 3.0], [1, 1, 0], [np.nan, 0.5, 0.5], 0.0)


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


def test_ols_refuses_an_unknown_variance_mode():
    w = np.column_stack([np.ones(5), np.arange(5.0)])
    with pytest.raises(DataError, match="unknown variance mode 'hc3'"):
        ols_sandwich(np.arange(5.0), w, "hc3")


def test_ols_on_a_singular_design_raises_numerical_error():
    """A W whose two columns are equal has no unique fit; this is the one
    NumericalError the package raises."""
    w = np.column_stack([np.ones(5), np.ones(5)])
    with pytest.raises(NumericalError, match="singular W'W in least squares"):
        ols_sandwich(np.arange(5.0), w)


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

    ref = infer_columns(d, MethodKind.FULL, cfg, oracle=y)
    for method in (
        MethodKind.COMPLETE,
        MethodKind.PLUGIN_MISSING,
        MethodKind.DR_W,
        MethodKind.DR_UW,
    ):
        res = infer_columns(d, method, cfg)
        assert res.kept.all()
        assert res.beta == pytest.approx(ref.beta, abs=1e-10)
        assert res.p_value == pytest.approx(ref.p_value, abs=1e-10)


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
    res = infer_columns(d, MethodKind.DR_UW, cfg)
    rate = np.mean(res.p_value[res.kept] < 0.05)
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
    out = infer_columns(d, MethodKind.COMPLETE, cfg)
    assert out.kept.tolist() == [True]
    assert out.p_value[0] == pytest.approx(expected, abs=1e-12)


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
    res = infer_columns(d, MethodKind.COMPLETE, InferenceConfig(target=d.covariate_names[1]))
    assert res.kept.tolist() == [False, True]
    assert "q+2" in res.skip_reason[0]


def test_full_requires_oracle():
    rng = np.random.default_rng(6)
    n = 8
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    d = make_dataset(rng.normal(size=(n, 1)), np.ones((n, 1), dtype=np.int8), w)
    with pytest.raises(DataError):
        infer_columns(d, MethodKind.FULL, InferenceConfig(target=d.covariate_names[1]))


def test_unknown_target_is_refused_before_any_nuisance_fit(monkeypatch):
    """A target that names no covariate is a DataError before the imputer
    (soft by default) or the propensity IRLS runs."""
    d, _ = gen_dataset(SimConfig(model=3, n=60, p=20, seed=2))
    calls = []
    for module, name in ((imputers, "impute"), (propensity, "fit_logistic_columns")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    with pytest.raises(DataError, match="unknown covariate 'nope'"):
        infer_methods(d, (MethodKind.DR_W, MethodKind.DR_UW), InferenceConfig(target="nope"))
    assert calls == []


@pytest.mark.parametrize("backend", ["mean", "lowdim", "soft", "knn", "knn2"])
def test_dr_uw_runs_on_one_column_with_default_imputer_sizes(backend):
    """The rank cap and neighbour count exceed p = 1 and are caps, not
    refusals: knn has no other column and takes the column mean."""
    rng = np.random.default_rng(15)
    n = 60
    a = rng.integers(0, 2, size=n).astype(float)
    y = (0.5 * a + rng.normal(size=n))[:, None]
    mask = (rng.random((n, 1)) > 0.3).astype(np.int8)
    d = make_dataset(y, mask, np.column_stack([np.ones(n), a]), covariate_names=("intercept", "a"))
    fit = lambda b: infer_columns(d, MethodKind.DR_UW, InferenceConfig(
        target="a", imputer=ImputerConfig(backend=b)))
    res = fit(backend)
    assert res.kept.all() and np.isfinite(res.beta).all()
    if backend == "knn":
        np.testing.assert_array_equal(res.beta, fit("mean").beta)


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
    res = infer_columns(d, MethodKind.DR_UW, cfg, folds=4)
    assert res.kept.all()
    plain = infer_columns(d, MethodKind.DR_UW, cfg)
    assert (np.abs(res.beta - plain.beta) < 6 * np.maximum(plain.se, res.se)).all()


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
    res = infer_columns(d, MethodKind.DR_UW, cfg, folds=3)
    full = infer_columns(
        d, MethodKind.FULL, InferenceConfig(target="a", variance_mode="sandwich"), oracle=y
    )
    assert res.beta == pytest.approx(full.beta, abs=1e-10)


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
        res = infer_columns(wider, MethodKind.DR_UW, cfg, folds=4)
        want = infer_columns(d, MethodKind.DR_UW, cfg, folds=4)
    assert res.skip_reason.tolist() == [""] * d.p + ["too few observed training rows"]
    for name in ("beta", "se", "z", "p_value", "degenerate"):
        np.testing.assert_array_equal(getattr(res, name)[: d.p], getattr(want, name))


def test_cross_fit_preconditions():
    rng = np.random.default_rng(9)
    d = _mar_dataset(rng, n=40)
    cfg = InferenceConfig(target="a")
    with pytest.raises(DataError):
        infer_columns(d, MethodKind.PLUGIN, cfg, folds=2)
    with pytest.raises(DataError):
        infer_columns(d, MethodKind.DR_UW, cfg, folds=1)
    with pytest.raises(DataError):
        infer_columns(d, MethodKind.DR_UW, cfg, folds=20)
    bad = InferenceConfig(target="a", imputer=ImputerConfig(backend="soft"))
    with pytest.raises(DataError):
        infer_columns(d, MethodKind.DR_UW, bad, folds=2)
    # cross-fitting fits its own nuisances; passed ones are not ignored
    given = {"nu_hat": impute_lowdim(d), "prop": fit_logistic_columns(d.mask, d.w)}
    for name, nuisance in given.items():
        with pytest.raises(DataError, match="fits its own nuisances"):
            infer_columns(d, MethodKind.DR_W, cfg, folds=2, **{name: nuisance})


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


# ------------------------------------------------------ every method in one pass


_FIELDS = ("beta", "se", "z", "p_value", "degenerate", "skip_reason")


def _assert_same_columns(got, want):
    for name in _FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)  # NaN equals NaN


@pytest.mark.parametrize("variance_mode", VARIANCE_MODES)
@pytest.mark.parametrize("model", [1, 2, 3, 4])
def test_infer_methods_is_one_call_per_method_bitwise(model, variance_mode):
    """The stacked fit of all six methods gives each exactly what a call of
    ``infer_columns`` for that method alone gives, with the method's default
    variance or the configured one."""
    d, truth = gen_dataset(SimConfig(model=model, n=80, p=25, seed=model))
    cfg = InferenceConfig(
        target="a", variance_mode=variance_mode, imputer=ImputerConfig(backend="knn", k_neighbors=5)
    )
    methods = tuple(MethodKind)
    together = infer_methods(d, methods, cfg, oracle=truth.y_full)
    assert list(together) == list(methods)
    for m in methods:
        _assert_same_columns(together[m], infer_columns(d, m, cfg, oracle=truth.y_full))


def _dataset_with_every_skip():
    """Column 2 is observed exactly where x > 1/2 on a 1e-4 scale, so x
    separates it, which skips it nowhere; column 4 is observed only where
    a == 1, so its complete-case design is singular; column 5 is never
    observed."""
    rng = np.random.default_rng(0)
    n, p = 120, 7
    a = rng.integers(0, 2, size=n).astype(float)
    x = rng.uniform(size=n)
    w = np.column_stack([np.ones(n), a, 1e-4 * x])
    y = np.outer(a, np.linspace(0, 1, p)) + rng.normal(size=(n, p))
    mask = (rng.random((n, p)) < 0.7).astype(np.int8)
    mask[:, 2] = x > 0.5
    mask[:, 4] = a == 1
    mask[:, 5] = 0
    return make_dataset(y, mask, w, covariate_names=("intercept", "a", "x")), y


@pytest.mark.parametrize("backend", ["lowdim", "knn"])
def test_infer_methods_keeps_each_skip_in_its_own_block(backend):
    """A column one method skips is skipped by that method only: no skip
    reason, NaN or stand-in value leaks into another method's block."""
    d, y = _dataset_with_every_skip()
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend=backend, k_neighbors=3))
    methods = tuple(MethodKind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the all-missing column is imputed as zero
        together = infer_methods(d, methods, cfg, oracle=y)
        alone = {m: infer_columns(d, m, cfg, oracle=y) for m in methods}
    for m in methods:
        _assert_same_columns(together[m], alone[m])
    reasons = {m: together[m].skip_reason.tolist() for m in methods}
    missing = "all entries missing"
    assert reasons[MethodKind.FULL] == [""] * 7
    assert reasons[MethodKind.COMPLETE][4:6] == ["singular complete-case design", missing]
    for m in (MethodKind.PLUGIN, MethodKind.PLUGIN_MISSING):
        assert reasons[m] == ["", "", "", "", "", missing, ""]
    for m in (MethodKind.DR_W, MethodKind.DR_UW):
        assert reasons[m] == ["", "", "", "", "", missing, ""]
    for m in methods:
        kept = together[m].kept
        assert np.isfinite(together[m].beta[kept]).all()
        assert np.isnan(together[m].beta[~kept]).all()


def test_cross_fit_evaluates_each_fold_propensity_at_its_held_out_rows_only(monkeypatch):
    """Each fold's fitted probabilities are computed at the rows the fold
    predicts and at no training row: one evaluation per fold, disjoint from
    that fold's fit rows, together covering the n rows once each."""
    d = _mar_dataset(np.random.default_rng(7), n=203)
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    fit_rows, evaluated = [], []
    fit, kernel = propensity.fit_logistic_columns, propensity._propensity
    monkeypatch.setattr(propensity, "fit_logistic_columns",
                        lambda c, w, *a, **k: fit_rows.append(w) or fit(c, w, *a, **k))
    monkeypatch.setattr(propensity, "_propensity",
                        lambda w, *a: evaluated.append(np.atleast_2d(w)) or kernel(w, *a))
    infer_methods(d, (MethodKind.DR_W, MethodKind.DR_UW), cfg, folds=5)
    assert len(fit_rows) == len(evaluated) == 5
    x = d.w[:, 2]  # continuous: it tells every row apart
    for train, at in zip(fit_rows, evaluated):
        assert len(train) + len(at) == d.n
        assert not np.isin(at[:, 2], train[:, 2]).any()
    assert sum(len(at) for at in evaluated) == d.n
    np.testing.assert_array_equal(np.sort(np.concatenate(evaluated)[:, 2]), np.sort(x))


def test_infer_methods_cross_fits_every_dr_method_in_one_fold_loop(monkeypatch):
    """With folds, both DR methods share one propensity fit per fold and
    equal their one-method cross-fits bitwise."""
    d = _mar_dataset(np.random.default_rng(7))
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    methods = (MethodKind.DR_W, MethodKind.DR_UW)
    alone = {m: infer_columns(d, m, cfg, folds=4) for m in methods}
    calls = []
    fit = propensity.fit_logistic_columns
    monkeypatch.setattr(propensity, "fit_logistic_columns",
                        lambda *a, **k: calls.append("propensity") or fit(*a, **k))
    together = infer_methods(d, methods, cfg, folds=4)
    assert calls == ["propensity"] * 4
    for m in methods:
        _assert_same_columns(together[m], alone[m])
    with pytest.raises(DataError, match="DR estimators only"):
        infer_methods(d, (MethodKind.DR_UW, MethodKind.PLUGIN), cfg, folds=4)
